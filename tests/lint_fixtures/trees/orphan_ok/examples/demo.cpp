// Lint fixture tree (orphan-module, ok). Never compiled.
// extdict-lint-expect: none
#include "core/demo_only.hpp"

int main() { return demo_only_entry(); }
