// extdict-lint-expect: per-column-encode-loop
// Parallel regions that code one column per iteration: a `parallel for`
// with a braced body, one whose body is a single statement, and a
// `parallel` block with a nested `omp for` calling through a pointer.
// (per_column_encode_loop_continued_bad.cpp covers a wrapped directive.)

#include <cstddef>

template <class Coder, class Code>
void code_all(const Coder& coder, const double* const* cols, Code* out,
              long n) {
#pragma omp parallel for default(none) shared(coder, cols, out, n)  // extdict-lint-hit
  for (long j = 0; j < n; ++j) {
    out[j] = coder.encode(cols[j]);
  }
}

template <class Coder, class Code>
void code_some(const Coder& coder, const double* const* cols, Code* out,
               long n) {
#pragma omp parallel for default(none) shared(coder, cols, out, n)  // extdict-lint-hit
  for (long j = 0; j < n; ++j) out[j] = coder.encode(cols[j]);
}

template <class Coder, class Code>
void code_region(const Coder* coder, const double* const* cols, Code* out,
                 long n) {
#pragma omp parallel default(none) shared(coder, cols, out, n)  // extdict-lint-hit
  {
#pragma omp for
    for (long j = 0; j < n; ++j) out[j] = coder->encode(cols[j]);
  }
}
