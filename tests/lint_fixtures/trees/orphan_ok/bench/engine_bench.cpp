// Lint fixture tree (orphan-module, ok): the bench is a real caller. Never
// compiled.
// extdict-lint-expect: none
#include "core/engine.hpp"

int main() { return engine_entry(); }
