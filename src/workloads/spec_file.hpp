/**
 * @file
 * Text format for user-defined workloads, so downstream users can
 * model their own applications without recompiling:
 *
 * @code
 * # my_app.spec — lines are "key value...", '#' comments
 * name my_app
 * suite custom
 * pinned_host true
 * input 64MiB
 * input 256KiB
 * output 64MiB
 * d2d 8MiB
 * scratch 16MiB
 * uvm_touch 96MiB
 * # phase <kernel> <launches> <ket> [jitter] [d2h_per_iter] [module]
 * phase stencil_k 120 45us 0.1
 * phase reduce_k 120 8us 0.15 4KiB
 * phase final_k 1 2ms 0.05 0 6MiB
 * @endcode
 *
 * Sizes accept B/KiB/MiB/GiB suffixes; times accept ns/us/ms/s.
 * The sizes of device buffers (input, output, d2d, scratch and a
 * phase's d2h) must fit calib::kHbmCapacity, and the phases' launch
 * counts must sum to at most kSpecLaunchBudget.
 */

#ifndef HCC_WORKLOADS_SPEC_FILE_HPP
#define HCC_WORKLOADS_SPEC_FILE_HPP

#include <string>

#include "common/status.hpp"
#include "workloads/spec.hpp"

namespace hcc::workloads {

/**
 * The most launches a spec's phases may sum to, 2^24: a run of
 * 15-20 s of host time that records ~1.6 GB of trace (two 48-byte
 * events per launch).  A larger total is refused before the run
 * starts.
 */
inline constexpr int kSpecLaunchBudget = 1 << 24;

/**
 * Parse the spec text format.
 * @return the spec, or a ParseError status whose message names the
 *         line and the key of a syntax or semantic error, including a
 *         token after a line's last field.
 */
Result<AppSpec> parseSpecText(const std::string &text);

/** Load and parse a spec file from disk (IoError when unreadable). */
Result<AppSpec> loadSpecFile(const std::string &path);

/** Parse "64MiB"-style size literals (ParseError otherwise). */
Result<Bytes> parseSize(const std::string &token);

/** Parse "45us"-style duration literals (ParseError otherwise). */
Result<SimTime> parseDuration(const std::string &token);

} // namespace hcc::workloads

#endif // HCC_WORKLOADS_SPEC_FILE_HPP
