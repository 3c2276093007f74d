// extdict-lint-expect: none
// The sparse coder's own files are exempt: the block encode lives here.

template <class Coder, class Code>
void encode_blocks(const Coder& coder, const double* const* cols, Code* out,
                   long n) {
#pragma omp parallel for default(none) shared(coder, cols, out, n)
  for (long j = 0; j < n; ++j) out[j] = coder.encode(cols[j]);
}
