/**
 * @file
 * PMLang sources for every workload of Tables III and IV.
 *
 * Static algorithms are embedded verbatim; size-parametric programs (FFT's
 * per-stage instantiations, the two CNNs' layer stacks) are emitted by
 * generators so tensor shapes stay consistent by construction. The emitted
 * text is the program of record — it is what gets parsed, analyzed, built,
 * validated against native references, and counted for Table III's LOC.
 */
#ifndef POLYMATH_WORKLOADS_PROGRAMS_H_
#define POLYMATH_WORKLOADS_PROGRAMS_H_

#include <cstdint>
#include <string>

namespace polymath::wl {

// --- Robotics ---------------------------------------------------------

/** Fig. 4: MPC trajectory tracking for a two-wheeled robot. @p horizon
 *  sets the condensed prediction length (paper: 1024 control steps). */
std::string mobileRobotProgram();

/** Six-rotor UAV altitude/attitude MPC: rotor mixing, linearized attitude
 *  dynamics, condensed-horizon prediction, gradient step. */
std::string hexacopterProgram();

// --- Graph analytics (vertex programs, Fig. 6) ------------------------

/** BFS as an iterative min-plus vertex program over @p n vertices
 *  (compiled instance; deployed scale comes from the dataset profile). */
std::string bfsProgram(int64_t n);

/** Single-source shortest path with edge weights. */
std::string sssPProgram(int64_t n);

/** PageRank power iteration (extension workload: Graphicionado's
 *  flagship algorithm, beyond the paper's Table III). One invocation is
 *  one damped iteration; `rank` and the precomputed out-degrees persist
 *  as state. */
std::string pagerankProgram(int64_t n);

// --- Data analytics ----------------------------------------------------

/** Low-rank matrix factorization, full-batch gradient descent step. */
std::string lrmfProgram(int64_t users, int64_t items, int64_t rank);

/** K-means: one assignment + centroid update step. */
std::string kmeansProgram(int64_t points, int64_t dims, int64_t clusters);

/** Logistic-regression training step (TABLA-style). */
std::string logregProgram(int64_t samples, int64_t features);

/** Black-Scholes European call pricing over an option batch. */
std::string blackScholesProgram(int64_t options);

// --- DSP ---------------------------------------------------------------

/** Radix-2 complex FFT: bit-reversal plus log2(n) butterfly stages, one
 *  instantiation per stage. @p n must be a power of two. */
std::string fftProgram(int64_t n);

/** 8x8 blocked DCT-II over an image (stride 8), basis as a param table. */
std::string dctProgram(int64_t height, int64_t width);

// --- Deep learning ------------------------------------------------------

/** ResNet-18 for 224x224x3 ImageNet classification, batch 1. */
std::string resnet18Program();

/** MobileNet-V1 (depthwise-separable) for ImageNet, batch 1. */
std::string mobilenetProgram();

// --- End-to-end applications (Table IV) --------------------------------

/** BrainStimul: FFT (DSP) -> logistic classification (DA) -> MPC (RBT),
 *  one closed-loop iteration per invocation. */
std::string brainStimulProgram();

/** OptionPricing: logistic-regression sentiment (DA on TABLA) +
 *  Black-Scholes pricing (DA on HyperStreams). */
std::string optionPricingProgram();

} // namespace polymath::wl

#endif // POLYMATH_WORKLOADS_PROGRAMS_H_
