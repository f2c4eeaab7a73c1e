/**
 * @file
 * Open-loop LLM serving simulator (`hccsim serve`): a deterministic
 * request-arrival process (Poisson, optionally shaped by burst
 * windows) driving a continuous-batching scheduler over the real
 * CC runtime.
 *
 * Where the closed-loop serving model (ml/llm.hpp, Fig. 14) measures
 * steady-state decode throughput at a fixed batch, this subsystem
 * measures what an operator sees at the SLO boundary: time-to-first-
 * token (TTFT), per-output-token latency (TPOT) and goodput as
 * offered load sweeps toward saturation.  Every decode iteration is
 * priced by the *same* analytical terms the closed-loop model uses
 * (llmStepModel / llmPrefillTime / llmFrameworkStepCost), so a
 * scheduler iteration at batch b costs exactly what a closed-loop
 * decode step at batch b does; what the open loop adds is queueing,
 * batch-occupancy dynamics and KV-cache paging.
 *
 * Per-session KV caches are managed (UVM) allocations touched by an
 * attention kernel each decode step, so KV growth demand-faults new
 * pages through the GMMU interval-map path — under CC that is the
 * encrypted-paging tax (2-page fault batches vs 64), and a preempted
 * session's KV residency is dropped so re-admission re-faults its
 * whole working set.  That is how the CC-vs-native goodput gap widens
 * with load: more queueing -> more preemption -> more encrypted
 * paging, on top of the per-step launch tax.
 *
 * Determinism contract: one fully isolated simulation per (load, cc,
 * overlap) cell on the grid kernel; the arrival trace is a pure
 * function of (spec, load); all outputs are byte-identical across
 * `--jobs` and repeated runs.
 */

#ifndef HCC_SERVE_SERVE_HPP
#define HCC_SERVE_SERVE_HPP

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "grid/grid.hpp"
#include "ml/llm.hpp"
#include "obs/registry.hpp"
#include "tee/secure_channel.hpp"
#include "trace/critpath.hpp"

namespace hcc::serve {

/**
 * One arrival-rate burst window over the request-index fraction
 * [begin, end) of the trace (0 = first request, 1 = last).  Within a
 * window the Poisson rate is multiplied by @p multiplier; overlapping
 * windows multiply together.
 */
struct BurstWindow
{
    double begin = 0.0;
    double end = 0.0;
    double multiplier = 1.0;
};

/**
 * Declarative serving experiment: one arrival trace per offered
 * load, served under every (cc, overlap) tier.  Cells are expanded
 * in input order: loads (outer) x cc_modes x overlaps (inner); that
 * order is the merge order of every output.
 */
struct ServeSpec
{
    ml::LlmBackend backend = ml::LlmBackend::Vllm;
    ml::LlmQuant quant = ml::LlmQuant::Bf16;
    /** Requests per arrival trace. */
    int requests = 160;
    /** Continuous-batching admission ceiling. */
    int max_batch = 32;
    /** Mean prompt tokens per request (sampled in [1/2x, 3/2x]). */
    int prompt_len = 512;
    /** Mean generated tokens per request (sampled in [1/2x, 3/2x]). */
    int gen_len = 64;
    /** KV-cache bytes per token per session. */
    Bytes kv_bytes_per_token = size::kib(32);
    /** Aggregate KV budget; exceeding it preempts young sessions.
     *  Soft for a lone session (one request always fits). */
    Bytes kv_budget_bytes = size::mib(256);
    /** Offered loads (requests per second), one goodput point each. */
    std::vector<double> loads = {8.0, 24.0, 48.0, 96.0};
    /** Arrival-rate burst windows (empty = plain Poisson). */
    std::vector<BurstWindow> bursts;
    /** CC modes to serve each load under. */
    std::vector<bool> cc_modes = {false, true};
    /** Channel overlap tiers to serve each load under. */
    std::vector<tee::OverlapMode> overlaps = {tee::OverlapMode::None};
    /** Parallel encryption workers in the CC transfer path. */
    int crypto_workers = 1;
    /** Model the hypothetical TEE-IO hardware path. */
    bool tee_io = false;
    /** Seed of the arrival trace and the per-cell simulators. */
    std::uint64_t seed = 42;

    /** Number of cells the spec expands to. */
    std::size_t cellCount() const;
};

/** One request of an arrival trace.  @p arrival is relative to the
 *  server-ready point (post CC handshake), so TTFT curves compare
 *  steady-state tiers rather than the one-time attestation cost. */
struct Request
{
    int id = 0;
    SimTime arrival = 0;
    int prompt_len = 0;
    int gen_len = 0;
};

/**
 * Expand the deterministic arrival trace for @p load requests/s: a
 * Poisson process (inter-arrival dt ~ Exp(rate)) whose rate is shaped
 * by the spec's burst windows, with per-request prompt/gen lengths
 * sampled around the spec means.  Pure function of (spec, load) —
 * every tier of a load point serves the byte-identical trace.
 */
std::vector<Request> buildArrivalTrace(const ServeSpec &spec,
                                       double load);

/**
 * Nearest-rank percentile (exact, no interpolation): the ceil(p/100
 * * N)-th smallest element of @p sorted (ascending).  0 when empty.
 */
SimTime percentileNearestRank(const std::vector<SimTime> &sorted,
                              double pct);

/** One expanded serving cell (a single simulation to run). */
struct ServeCell
{
    /** Input-order position in the expanded spec. */
    std::size_t index = 0;
    /** Offered load, requests per second. */
    double load = 0.0;
    bool cc = false;
    tee::OverlapMode overlap = tee::OverlapMode::None;

    /** Stable id, e.g. "l24.cc" or "l96.cc.speculative". */
    std::string label() const;
};

/** The SLO metrics of one served cell. */
struct ServePoint
{
    int requests = 0;
    int completed = 0;
    /** KV-pressure evictions back to the wait queue. */
    int preempted = 0;
    /** Prefill passes (== admissions of fresh requests). */
    int prefills = 0;
    /** Generated tokens over the whole run. */
    std::int64_t tokens = 0;
    /** Server-ready to last retirement. */
    SimTime makespan = 0;
    /** Offered token rate: load x mean generated tokens/request. */
    double offered_tok_s = 0.0;
    /** Achieved token rate: tokens / makespan. */
    double goodput_tok_s = 0.0;
    SimTime ttft_p50 = 0, ttft_p95 = 0, ttft_p99 = 0;
    SimTime tpot_p50 = 0, tpot_p95 = 0, tpot_p99 = 0;
    /** UVM far-fault batches (the KV paging signal). */
    std::uint64_t kv_fault_batches = 0;
    /** Managed bytes demand-migrated (KV faults + re-faults). */
    Bytes kv_migrated_bytes = 0;
    trace::Bottleneck bottleneck = trace::Bottleneck::ComputeBound;
    /** On-path time inside traced events. */
    SimTime critical_path_ps = 0;
    /** The cell's full stats registry (serve.* + runtime stats). */
    std::shared_ptr<obs::Registry> stats;
};

/** Outcome of one cell. */
struct ServeCellResult : grid::Row<ServeCell>
{
    /** Valid iff ok. */
    ServePoint point;
};

/** Outcome of a whole serve sweep, cells in input order. */
struct ServeResult : grid::Outcome<ServeCellResult>
{
    ServeSpec spec;
};

/** Expand @p spec into cells in deterministic input order. */
std::vector<ServeCell> expandServeCells(const ServeSpec &spec);

/** Serve one cell in its own isolated Context.  @throws FatalError
 *  on an invalid spec. */
ServePoint runServeCell(const ServeSpec &spec, const ServeCell &cell);

/** Serve every cell of @p spec on @p jobs workers (<= 1 = inline). */
ServeResult runServe(const ServeSpec &spec, int jobs);

/**
 * Parse a comma list of burst windows, each `begin:end:multiplier`
 * with 0 <= begin < end <= 1 and multiplier > 0 (e.g.
 * "0.5:0.8:4").  @throws FatalError.
 */
std::vector<BurstWindow> parseBurstList(const std::string &csv);

/** Per-cell CSV (docs/SWEEP.md "Outputs"; no status column): one
 *  row per cell in input order. */
void writeServeCsv(const ServeResult &result, std::ostream &os);

/** Per-cell JSON array, same rows as the CSV. */
void writeServeJson(const ServeResult &result, std::ostream &os);

/**
 * Merged stats dump: every successful cell's registry as a section
 * prefixed "cell<index>.<label>." plus a "serve_curve" member with
 * the per-point SLO metrics, readable by `hccsim stats-diff`.
 */
void writeServeStats(const ServeResult &result, std::ostream &os);

} // namespace hcc::serve

#endif // HCC_SERVE_SERVE_HPP
