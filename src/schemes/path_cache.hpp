#pragma once
// Compatibility names for perfbench/, which is frozen and still spells
// schemes::PathCache / schemes::PathMode. Everything else uses the
// graph:: names from graph/path_cache.hpp directly.

#include "graph/path_cache.hpp"

namespace spider::schemes {

using graph::PathCache;
using graph::PathMode;

}  // namespace spider::schemes
