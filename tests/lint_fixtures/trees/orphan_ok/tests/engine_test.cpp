// Lint fixture tree (orphan-module, ok). Never compiled.
// extdict-lint-expect: none
#include "core/engine.hpp"

int test_entry() { return engine_entry(); }
