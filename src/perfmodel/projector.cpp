#include "perfmodel/projector.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/calibration.hpp"
#include "crypto/cpu_crypto_model.hpp"
#include "runtime/host_costs.hpp"
#include "tee/tdx.hpp"

namespace hcc::perfmodel {

namespace {

using namespace calib;

/** Effective CC transfer rate per direction (the pipeline
 *  bottleneck of the `none` tier, the fused seal + copy worker; see
 *  SecureChannel::workerChunkCost). */
double
ccRateGbps(bool d2h)
{
    return ccPredictedRateGbps(tee::OverlapMode::None, d2h);
}

/** Expected (deterministic) part of a warm launch's cost. */
double
warmLaunchMean(bool cc)
{
    // Lognormal mean = median * exp(sigma^2 / 2).
    const double sigma = cc ? kLaunchSigmaCc : kLaunchSigmaBase;
    double t = static_cast<double>(kLaunchMedianBase)
        * std::exp(sigma * sigma / 2.0);
    if (cc)
        t += static_cast<double>(kLaunchCcExtra);
    // Amortized doorbell share.
    t += static_cast<double>(cc ? kMmioDoorbellTd
                                : kMmioDoorbellBase)
        / kLaunchDoorbellBatch;
    return t;
}

} // namespace

double
ccPredictedRateGbps(tee::OverlapMode mode, bool d2h, int spec_depth)
{
    crypto::CpuCryptoModel model(crypto::CpuKind::IntelEmr);
    const double gcm =
        model.throughputGBs(crypto::CipherAlgo::AesGcm128);
    // Per-MiB stage times: encrypt, and the bounce copy (+ inbound
    // page scrubbing on D2H).
    const double mib = 1024.0 * 1024.0;
    const double seal_us = mib / (gcm * 1e3);
    double copy_us = mib / (kBounceCopyGBs * 1e3);
    if (d2h) {
        copy_us += static_cast<double>(kCcInboundPerPage) * 1e-6
            * (mib / static_cast<double>(kUvmPageBytes));
    }
    const double seal_rate = mib / (seal_us * 1e3);
    const double copy_rate = mib / (copy_us * 1e3);
    // The software stage(s) feeding the link.
    double front = 0.0;
    switch (mode) {
    case tee::OverlapMode::None:
        front = mib / ((seal_us + copy_us) * 1e3);
        break;
    case tee::OverlapMode::DoubleBuffer:
        front = std::min(seal_rate, copy_rate);
        break;
    case tee::OverlapMode::Speculative:
        front = std::min(
            seal_rate * static_cast<double>(std::max(1, spec_depth)),
            copy_rate);
        break;
    }
    return std::min({front, kPciePinnedGBs, kGpuCryptoGBs});
}

std::string
CcProjection::report() const
{
    std::ostringstream oss;
    oss << "base P       " << formatTime(base) << "\n"
        << "projected P  " << formatTime(projected) << "  ("
        << slowdown() << "x)\n"
        << "  transfers  +" << formatTime(mem_delta) << "\n"
        << "  launches   +" << formatTime(launch_delta) << "\n"
        << "  kernels    +" << formatTime(kernel_delta) << "\n"
        << "  alloc/free +" << formatTime(alloc_delta) << "\n";
    if (uvm_seen)
        oss << "  WARNING: managed memory seen — projection "
               "unreliable\n";
    return oss.str();
}

CcProjection
projectCc(const trace::Tracer &base_trace)
{
    using trace::EventKind;

    CcProjection p;
    p.base = base_trace.span();

    // Scratch TDX modules so the alloc/free re-costing uses the very
    // same functions the simulator charges.
    tee::TdxModule vm(false), td(true);

    const double h2d_cc = ccRateGbps(false);
    const double d2h_cc = ccRateGbps(true);
    const double launch_scale =
        warmLaunchMean(true) / warmLaunchMean(false);
    const double decode_scale =
        static_cast<double>(kCmdProcDecodeCc)
        / static_cast<double>(kCmdProcDecodeBase);

    // Occurrence count per launch symbol, keyed by the trace's
    // interned label id (same string <=> same id within one trace).
    std::vector<int> first_seen;

    for (const auto &e : base_trace.events()) {
        if (e.encrypted_paging)
            p.uvm_seen = true;
        switch (e.kind) {
          case EventKind::MemcpyH2D:
          case EventKind::MemcpyD2H: {
            const bool d2h = e.kind == EventKind::MemcpyD2H;
            const SimTime cc_time = kMemcpySetupBase
                + kMmioDoorbellTd + kTdxHypercallLatency
                + transferTime(e.bytes, d2h ? d2h_cc : h2d_cc);
            p.mem_delta += std::max<SimTime>(0,
                                             cc_time - e.duration());
            break;
          }
          case EventKind::MemcpyD2D:
            // HBM blit unchanged; doorbell trap delta only.
            p.mem_delta += kMmioDoorbellTd - kMmioDoorbellBase;
            break;
          case EventKind::Launch:
          case EventKind::GraphLaunch: {
            // Warm part scales; the first launch of each symbol
            // additionally pays the CC module-upload delta.
            const double warm_delta =
                static_cast<double>(e.duration())
                * (launch_scale - 1.0);
            p.launch_delta += static_cast<SimTime>(warm_delta);
            // Dispatch gap (LQT share) scales too.
            p.launch_delta += static_cast<SimTime>(
                static_cast<double>(e.queue_wait)
                * (kCcDispatchFactor - 1.0));
            // First launches in the decay window pay the CC module
            // upload delta; the very first also carves a bounce
            // buffer and converts the staging window.
            if (e.label >= first_seen.size())
                first_seen.resize(e.label + 1, 0);
            const int occurrence = first_seen[e.label]++;
            if (occurrence < kFirstLaunchWindow) {
                const Bytes module =
                    e.bytes > 0 ? e.bytes : kDefaultModuleBytes;
                const SimTime base_x =
                    transferTime(module, kModuleUploadBaseGBs);
                const SimTime cc_x =
                    transferTime(module, kModuleUploadCcGBs);
                p.launch_delta += static_cast<SimTime>(
                    static_cast<double>(cc_x - base_x)
                    * std::pow(kFirstLaunchDecay, occurrence));
                if (occurrence == 0) {
                    p.launch_delta +=
                        kDmaAllocFixed + kPageConvertPerPage;
                    if (module > size::kib(256.0)) {
                        const Bytes conv =
                            std::min(module, kModuleConvertCap);
                        p.launch_delta += kPageConvertPerPage
                            * static_cast<SimTime>(
                                  conv / kUvmPageBytes);
                    }
                }
            }
            break;
          }
          case EventKind::Kernel: {
            p.kernel_delta += static_cast<SimTime>(
                static_cast<double>(e.duration())
                * kKetCcJitterMean);
            // KQT (decode) amplification.
            p.kernel_delta += static_cast<SimTime>(
                static_cast<double>(e.queue_wait)
                * (decode_scale - 1.0));
            break;
          }
          case EventKind::MallocDevice:
            p.alloc_delta += rt::deviceAllocCost(e.bytes, td)
                - rt::deviceAllocCost(e.bytes, vm);
            break;
          case EventKind::MallocHost:
            p.alloc_delta += rt::hostAllocCost(e.bytes, td)
                - rt::hostAllocCost(e.bytes, vm);
            break;
          case EventKind::MallocManaged:
            p.uvm_seen = true;
            p.alloc_delta += rt::managedAllocCost(e.bytes, td)
                - rt::managedAllocCost(e.bytes, vm);
            break;
          case EventKind::Free:
            // The trace does not distinguish managed frees; use the
            // plain path (managed apps are flagged unreliable).
            p.alloc_delta += rt::freeCost(e.bytes, td)
                - rt::freeCost(e.bytes, vm);
            break;
          case EventKind::Sync:
          case EventKind::Fault:
            break;
        }
    }

    p.projected = p.base + p.mem_delta + p.launch_delta
        + p.kernel_delta + p.alloc_delta;
    return p;
}

} // namespace hcc::perfmodel
