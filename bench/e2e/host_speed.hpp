/// \file host_speed.hpp
/// Host-speed probe of the e2e benchmark: a fixed pair-force sweep, owned by
/// the benchmark and built apart from wsmd_core, so its code is the same on
/// every commit the benchmark measures. The harness times it on the core the
/// workload runs on, between passes, and run.py scales each pass's timings
/// by it (see README "How a run measures").
#pragma once

namespace e2e {

/// Milliseconds for one fixed amount of work: LJ-like pair forces over a
/// fixed random neighbour list of 4,096 atoms, swept in FP32 and in FP64
/// (gathers, divides, reductions, all L2-resident like the workloads); the
/// geometric mean of the two sweeps' times. The first call also builds the
/// inputs, so call it once untimed before using the result.
double host_speed_ms();

}  // namespace e2e
