/**
 * @file
 * Hand-optimized native reference implementations.
 *
 * Two roles (DESIGN.md §1):
 *  1. Functional oracles — the test suite checks every PMLang workload's
 *     interpreter output against these, element-for-element.
 *  2. The "expert, hand-tuned" baseline of Figs. 9/12 — their analytic
 *     operation counts define the optimal work a native-stack
 *     implementation performs, against which PolyMath's generic lowering
 *     is compared.
 */
#ifndef POLYMATH_WORKLOADS_REFERENCE_H_
#define POLYMATH_WORKLOADS_REFERENCE_H_

#include <complex>
#include <cstdint>
#include <vector>

#include "core/tensor.h"

namespace polymath::wl::ref {

/** In-place iterative radix-2 DIT FFT (FFTW-style butterfly order). */
void fft(std::vector<std::complex<double>> *data);

/** FFT of a complex tensor [n]; returns the spectrum [n]. */
Tensor fftTensor(const Tensor &signal);

/** 8x8 blocked DCT-II with basis @p c8 (both dims multiples of 8). */
Tensor dct8x8(const Tensor &img, const Tensor &c8);

/** One K-means step with the mask semantics of the PMLang program
 *  (ties contribute to every tied cluster). Returns new centroids; when
 *  @p assign_out is non-null it receives the summed-index assignment. */
Tensor kmeansStep(const Tensor &x, const Tensor &mu,
                  Tensor *assign_out = nullptr);

/** One full-batch LRMF gradient step (h update sees the new w). */
void lrmfStep(const Tensor &r, Tensor *w, Tensor *h, double lr);

/** One full-batch logistic-regression step. */
void logregStep(const Tensor &x, const Tensor &y, Tensor *w, double lr);

/** Black-Scholes European call prices (erf-based closed form). */
Tensor blackScholes(const Tensor &s, const Tensor &k, const Tensor &t,
                    double rate, double vol);

/** One min-plus relaxation (matches the vertex program, INF = 1e9). */
Tensor graphRelax(const Tensor &adj, const Tensor &dist, bool weighted);

/** Exact hop distances by BFS over the dense adjacency (INF = 1e9). */
Tensor bfsDistances(const Tensor &adj, int64_t source);

/** One damped PageRank power iteration over the dense adjacency
 *  (dangling-free graphs; matches the PMLang program's arithmetic). */
Tensor pagerankIter(const Tensor &adj, const Tensor &outdeg,
                    const Tensor &rank, double damp);

/** One MPC step of the MobileRobot program (Fig. 4 semantics). */
struct MpcState
{
    Tensor ctrlMdl;  ///< [b]
    Tensor ctrlSgnl; ///< [s]
};
MpcState mpcStep(const Tensor &pos, const Tensor &ctrl_mdl,
                 const Tensor &pos_ref, const Tensor &p, const Tensor &hq_g,
                 const Tensor &h, const Tensor &r_g, int64_t hstep);

/** Direct convolution y[K][HO][WO] over pre-padded x (stride @p stride). */
Tensor conv2d(const Tensor &x, const Tensor &w, int64_t stride);

/** Dense layer y = Wx + b. */
Tensor dense(const Tensor &x, const Tensor &w, const Tensor &b);

// ---------------------------------------------------------------------------
// Analytic operation counts of the hand-tuned implementations (Fig. 9/12).
// ---------------------------------------------------------------------------

/** Row-column 8x8 DCT: 16 MACs per pixel. */
int64_t dctOptimalFlops(int64_t h, int64_t w);

/** Distances + argmin + centroid accumulation. */
int64_t kmeansOptimalFlops(int64_t n, int64_t d, int64_t k);

/** Native vertex program: one relax op per edge + one update per vertex.*/
int64_t graphOptimalFlops(int64_t vertices, int64_t edges);

/** Condensed MPC: the four mat-vecs plus vector updates. */
int64_t mpcOptimalFlops(int64_t a, int64_t b, int64_t c);

} // namespace polymath::wl::ref

#endif // POLYMATH_WORKLOADS_REFERENCE_H_
