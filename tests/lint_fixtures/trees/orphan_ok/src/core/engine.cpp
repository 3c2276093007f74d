// Lint fixture tree (orphan-module, ok): includes a sibling header by its
// directory-relative name, which counts as a src/ caller. Never compiled.
// extdict-lint-expect: none
#include "core/engine.hpp"
#include "detail.hpp"

int engine_entry() { return detail_value(); }
