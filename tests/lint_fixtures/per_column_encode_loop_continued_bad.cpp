// extdict-lint-expect: per-column-encode-loop
// A directive whose clauses continue on the next line: the rule must join
// the continuation before it finds the loop (flagged on the first line).

template <class Coder, class Code>
void code_some(const Coder& coder, const double* const* cols, Code* out,
               long n) {
#pragma omp parallel for schedule(dynamic, 16) default(none) \
    shared(coder, cols, out, n) if (n > 1)
  for (long j = 0; j < n; ++j) out[j] = coder.encode(cols[j]);
}
