// Lint fixture tree (orphan-module, bad): included only by an example, which
// demonstrates the module but is no figure, table or workload. Flagged on the
// `#pragma once` line. Never compiled.
// extdict-lint-expect: orphan-module
#pragma once  // extdict-lint-hit

inline int demo_only_entry() { return 5; }
