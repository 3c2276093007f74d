// Lint fixture tree (orphan-module, bad): an example includer does not make
// a module live. Never compiled.
// extdict-lint-expect: none
#include "core/demo_only.hpp"

int main() { return demo_only_entry(); }
