/**
 * @file
 * The continuous-batching scheduler: one isolated simulation per
 * serving cell, driven by the cell's arrival trace through the real
 * runtime.
 *
 * Scheduling policy (vLLM-style, deterministic):
 *  - FCFS head-of-line admission up to max_batch, gated by the KV
 *    budget (a lone request always fits — the budget is soft for it);
 *  - iteration-level batching: every decode iteration serves the
 *    whole active set, priced by the closed-loop model terms at the
 *    current batch size;
 *  - per-session KV caches are managed allocations touched by an
 *    attention kernel each iteration, so KV growth demand-faults
 *    through the GMMU (the CC encrypted-paging path);
 *  - KV pressure preempts the youngest session (LIFO): its device
 *    residency is dropped and it re-queues at the head, re-faulting
 *    its whole KV on re-admission;
 *  - an empty server idles the host clock to the next arrival via
 *    Context::advanceHostTo() (no trace event, no RNG draw).
 */

#include "serve/serve.hpp"

#include <algorithm>
#include <deque>

#include "common/calibration.hpp"
#include "common/log.hpp"
#include "gpu/kernel.hpp"
#include "runtime/context.hpp"

namespace hcc::serve {

namespace {

/** One admitted (or preempted-waiting) request's serving state. */
struct Session
{
    Request req;
    /** Managed KV-cache allocation; unallocated until admission. */
    rt::Buffer kv{};
    rt::Buffer prompt_host{}, prompt_dev{};
    /** Tokens generated so far. */
    int generated = 0;
    /** First-token completion time (-1 until it happens). */
    SimTime first_token = -1;

    bool admittedBefore() const { return kv.bytes != 0; }
};

} // namespace

ServePoint
runServeCell(const ServeSpec &spec, const ServeCell &cell)
{
    if (spec.max_batch <= 0)
        fatal("serve: max batch must be positive (got %d)",
              spec.max_batch);
    if (spec.kv_bytes_per_token == 0)
        fatal("serve: kv bytes per token must be positive");
    if (spec.kv_budget_bytes == 0)
        fatal("serve: kv budget must be positive");

    const std::vector<Request> trace =
        buildArrivalTrace(spec, cell.load);

    rt::SystemConfig sys;
    sys.cc = cell.cc;
    sys.seed = spec.seed;
    sys.channel.crypto_workers = spec.crypto_workers;
    sys.channel.tee_io = spec.tee_io;
    sys.channel.overlap = cell.overlap;
    rt::Context ctx(sys);

    // Stat handles up front: Registry creation is get-or-create but
    // not thread-safe against concurrent section dumps, and grabbing
    // them here keeps creation order identical in every cell.
    auto &c_requests = ctx.obs().counter("serve.requests");
    auto &c_completed = ctx.obs().counter("serve.completed");
    auto &c_preempted = ctx.obs().counter("serve.preempted");
    auto &c_prefills = ctx.obs().counter("serve.prefills");
    auto &c_tokens = ctx.obs().counter("serve.tokens");
    auto &g_occupancy = ctx.obs().gauge("serve.batch_occupancy");
    auto &g_queue = ctx.obs().gauge("serve.queue_depth");
    auto &g_kv = ctx.obs().gauge("serve.kv_reserved_bytes");
    auto &d_ttft = ctx.obs().distribution("serve.ttft_ps");
    auto &d_tpot = ctx.obs().distribution("serve.tpot_ps");

    const Bytes kvpt = spec.kv_bytes_per_token;
    const auto kvNow = [kvpt](const Session &s) -> Bytes {
        return static_cast<Bytes>(s.req.prompt_len + s.generated)
            * kvpt;
    };

    // Shared model state: weights resident for the whole run, one
    // token staging pair reused every iteration.
    const Bytes token_bytes = std::max<Bytes>(
        static_cast<Bytes>(spec.max_batch) * 8, 4096);
    rt::Buffer weights_dev =
        ctx.mallocDevice(ml::llmWeightBytes(spec.quant));
    rt::Buffer token_dev = ctx.mallocDevice(token_bytes);
    rt::Buffer token_host = ctx.hostPageable(token_bytes);

    // Server-ready point: arrivals are relative to it, so the CC
    // attestation handshake (a one-time cost) never skews TTFT.
    const SimTime start = ctx.now();

    const std::string decode_name =
        ml::llmBackendName(spec.backend) + "_decode_fused";
    const std::string attend_name =
        ml::llmBackendName(spec.backend) + "_kv_attend";
    const std::string prefill_name =
        ml::llmBackendName(spec.backend) + "_prefill";

    std::deque<Session> waiting;
    std::vector<Session> active;
    std::size_t next_arrival = 0;
    Bytes kv_used = 0;
    int completed = 0, preempted = 0, prefills = 0;
    std::int64_t tokens = 0;
    std::vector<SimTime> ttfts, tpots;
    ttfts.reserve(trace.size());
    tpots.reserve(trace.size());

    while (completed < spec.requests) {
        // 1. Enqueue every arrival that has happened by now.
        while (next_arrival < trace.size()
               && start + trace[next_arrival].arrival <= ctx.now()) {
            Session s;
            s.req = trace[next_arrival++];
            waiting.push_back(s);
            c_requests.add(1);
        }

        // 2. FCFS head-of-line admission under the KV budget.
        while (static_cast<int>(active.size()) < spec.max_batch
               && !waiting.empty()) {
            Session &head = waiting.front();
            if (!active.empty()
                && kv_used + kvNow(head) > spec.kv_budget_bytes)
                break;
            if (!head.admittedBefore()) {
                // Fresh request: prompt ingress (the CC channel tax
                // applies here), KV allocation and one prefill pass.
                const Bytes prompt_bytes = std::max<Bytes>(
                    static_cast<Bytes>(head.req.prompt_len) * 4,
                    4096);
                head.prompt_host = ctx.hostPageable(prompt_bytes);
                head.prompt_dev = ctx.mallocDevice(prompt_bytes);
                ctx.memcpy(head.prompt_dev, head.prompt_host,
                           prompt_bytes);
                head.kv = ctx.mallocManaged(
                    static_cast<Bytes>(head.req.prompt_len
                                       + head.req.gen_len)
                    * kvpt);
                gpu::KernelDesc prefill;
                prefill.name = prefill_name;
                prefill.duration = ml::llmPrefillTime(
                    spec.backend, spec.quant,
                    static_cast<double>(head.req.prompt_len));
                prefill.uvm_alloc = head.kv.uvm_handle;
                prefill.uvm_touch_bytes =
                    static_cast<Bytes>(head.req.prompt_len) * kvpt;
                ctx.launchKernel(prefill);
                ++prefills;
                c_prefills.add(1);
            }
            // Re-admission allocates nothing: the KV buffer is still
            // live, only its device residency was dropped — the next
            // attention touch re-faults it (encrypted under CC).
            kv_used += kvNow(head);
            active.push_back(std::move(head));
            waiting.pop_front();
        }

        // 3. Empty server: idle the host clock to the next arrival.
        if (active.empty()) {
            HCC_ASSERT(next_arrival < trace.size(),
                       "serve scheduler stalled with no work left");
            ctx.advanceHostTo(start + trace[next_arrival].arrival);
            continue;
        }

        // 4. One decode iteration over the whole active batch,
        // priced exactly like a closed-loop decode step at this
        // batch size.
        const int batch = static_cast<int>(active.size());
        const ml::LlmStepModel step =
            ml::llmStepModel(spec.backend, spec.quant, batch);
        gpu::KernelDesc decode;
        decode.name = decode_name;
        decode.duration = step.per_kernel;
        for (int k = 0; k < step.launches; ++k)
            ctx.launchKernel(decode);
        for (const Session &s : active) {
            gpu::KernelDesc attend;
            attend.name = attend_name;
            attend.duration = std::max(
                time::us(2), transferTime(kvNow(s), calib::kHbmGBs));
            attend.uvm_alloc = s.kv.uvm_handle;
            attend.uvm_touch_bytes = kvNow(s);
            ctx.launchKernel(attend);
        }
        ctx.deviceSynchronize();
        ctx.memcpy(token_host, token_dev,
                   static_cast<Bytes>(batch) * 8);
        ctx.advanceHostTo(
            ctx.now() + ml::llmFrameworkStepCost(spec.backend, batch));

        // 5. Bookkeeping: token completions, retirements.
        const SimTime now = ctx.now();
        for (auto it = active.begin(); it != active.end();) {
            Session &s = *it;
            ++s.generated;
            kv_used += kvpt;
            if (s.first_token < 0) {
                s.first_token = now;
                const SimTime ttft = now - (start + s.req.arrival);
                ttfts.push_back(ttft);
                d_ttft.add(static_cast<double>(ttft));
            }
            if (s.generated >= s.req.gen_len) {
                if (s.req.gen_len > 1) {
                    const SimTime tpot = (now - s.first_token)
                        / (s.req.gen_len - 1);
                    tpots.push_back(tpot);
                    d_tpot.add(static_cast<double>(tpot));
                }
                tokens += s.req.gen_len;
                c_tokens.add(
                    static_cast<std::uint64_t>(s.req.gen_len));
                kv_used -= kvNow(s);
                ctx.free(s.kv);
                ctx.free(s.prompt_dev);
                ctx.free(s.prompt_host);
                ++completed;
                c_completed.add(1);
                it = active.erase(it);
            } else {
                ++it;
            }
        }

        // 6. KV pressure: preempt youngest-first until under budget
        // (never the last session — the budget is soft for it).
        while (kv_used > spec.kv_budget_bytes && active.size() > 1) {
            Session victim = std::move(active.back());
            active.pop_back();
            kv_used -= kvNow(victim);
            ctx.cpuTouchManaged(victim.kv);
            waiting.push_front(std::move(victim));
            ++preempted;
            c_preempted.add(1);
        }

        g_occupancy.set(static_cast<std::int64_t>(active.size()), now);
        g_queue.set(static_cast<std::int64_t>(waiting.size()), now);
        g_kv.set(static_cast<std::int64_t>(kv_used), now);
    }

    ctx.free(token_host);
    ctx.free(token_dev);
    ctx.free(weights_dev);

    ServePoint point;
    point.requests = spec.requests;
    point.completed = completed;
    point.preempted = preempted;
    point.prefills = prefills;
    point.tokens = tokens;
    point.makespan = ctx.now() - start;

    double gen_sum = 0.0;
    for (const Request &r : trace)
        gen_sum += static_cast<double>(r.gen_len);
    point.offered_tok_s =
        cell.load * gen_sum / static_cast<double>(spec.requests);
    point.goodput_tok_s = point.makespan > 0
        ? static_cast<double>(tokens) / time::toSec(point.makespan)
        : 0.0;

    std::sort(ttfts.begin(), ttfts.end());
    std::sort(tpots.begin(), tpots.end());
    point.ttft_p50 = percentileNearestRank(ttfts, 50.0);
    point.ttft_p95 = percentileNearestRank(ttfts, 95.0);
    point.ttft_p99 = percentileNearestRank(ttfts, 99.0);
    point.tpot_p50 = percentileNearestRank(tpots, 50.0);
    point.tpot_p95 = percentileNearestRank(tpots, 95.0);
    point.tpot_p99 = percentileNearestRank(tpots, 99.0);

    point.kv_fault_batches = ctx.device().uvm().totalBatches();
    point.kv_migrated_bytes = ctx.device().uvm().totalMigrated();

    const trace::CriticalAnalysis crit = trace::analyzeCritical(
        ctx.tracer(), &ctx.obs(), /*full=*/false);
    point.bottleneck = crit.path.bottleneck;
    point.critical_path_ps = crit.path.on_path_ps;

    point.stats = ctx.obsPtr();
    return point;
}

} // namespace hcc::serve
