/**
 * @file
 * Spec-driven workloads: most benchmark apps are fully described by
 * their buffer sizes, host-memory kind and kernel phases, so they are
 * declared as data (polybench.cpp, rodinia.cpp, graphs.cpp) and
 * executed by one generic driver.
 *
 * The copy-then-execute structure follows Sec. VI-A: allocate, H2D
 * the inputs, run the kernel phases, D2H the outputs, free.  The UVM
 * variant replaces explicit copies with managed allocations whose
 * pages fault over on first kernel touch (Sec. II-B).
 */

#ifndef HCC_WORKLOADS_SPEC_HPP
#define HCC_WORKLOADS_SPEC_HPP

#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace hcc::workloads {

/** One group of launches of the same kernel. */
struct KernelPhase
{
    /** Kernel symbol name. */
    std::string kernel;
    /** Number of back-to-back launches. */
    int launches = 1;
    /** Nominal per-launch KET (idle, non-CC, resident data). */
    SimTime ket = time::us(100);
    /** Lognormal sigma of per-launch KET variation. */
    double jitter_sigma = 0.08;
    /** Per-iteration device-to-host readback (kmeans/bfs style). */
    Bytes d2h_per_iter = 0;
    /** Synchronize the device after the phase. */
    bool sync_after = false;
    /** Kernel module size (0 = calibrated default). */
    Bytes module_bytes = 0;
    /** Roofline work (GFLOP); used when ket == 0. */
    double gflops = 0.0;
    /** Roofline HBM traffic (bytes); used when ket == 0. */
    Bytes mem_bytes = 0;
    /** Threads per launch (occupancy for the roofline model). */
    std::int64_t threads = 256 * 1024;
    /**
     * Per-iteration host-to-device streaming copy, issued before
     * each launch through a reused staging buffer (bigxfer style):
     * moves launches x h2d_per_iter bytes while allocating only one
     * buffer, so transfer time scales independently of the CC
     * pinned-allocation tax.
     */
    Bytes h2d_per_iter = 0;
};

/** Declarative description of one application. */
struct AppSpec
{
    std::string name;
    std::string suite;
    /** Host buffers allocated pinned (cudaMallocHost) vs pageable. */
    bool pinned_host = false;
    /** Input buffer sizes, H2D'd at the start. */
    std::vector<Bytes> inputs;
    /** Output buffer sizes, D2H'd at the end. */
    std::vector<Bytes> outputs;
    /** Device-to-device shuffles issued after the H2D stage. */
    std::vector<Bytes> d2d_copies;
    /** Device-only scratch allocation. */
    Bytes scratch = 0;
    /** Kernel phases, run in order. */
    std::vector<KernelPhase> phases;
    /** Whether a managed-memory variant exists. */
    bool uvm_capable = true;
    /**
     * Managed bytes the kernels touch in UVM mode; 0 means the sum
     * of the input buffers.
     */
    Bytes uvm_touch_override = 0;
    /**
     * fork_after warmup marker: fraction of launches a
     * `--fork-point auto` campaign prefix covers.  The default keeps
     * almost the whole launch schedule shareable; specs whose suffix
     * must retain more work can lower it.
     */
    double fork_after = 0.9;

    Bytes totalInputBytes() const;
    Bytes totalOutputBytes() const;
    int totalLaunches() const;
};

/** Generic driver executing an AppSpec. */
class SpecWorkload : public Workload
{
  public:
    explicit SpecWorkload(AppSpec spec);

    std::string name() const override { return spec_.name; }
    std::string suite() const override { return spec_.suite; }
    bool supportsUvm() const override { return spec_.uvm_capable; }
    void run(rt::Context &ctx, const WorkloadParams &params)
        const override;

    double defaultForkPoint() const override
    {
        return spec_.fork_after;
    }
    std::unique_ptr<Resume>
    runPrefix(rt::Context &ctx, const WorkloadParams &params,
              double fraction) const override;
    void runSuffix(rt::Context &ctx, const WorkloadParams &params,
                   const Resume &resume) const override;
    std::unique_ptr<Resume>
    runSegment(rt::Context &ctx, const WorkloadParams &params,
               const Resume &from, double to_fraction) const override;
    std::unique_ptr<Resume>
    reseedResume(const Resume &resume,
                 const WorkloadParams &params) const override;

    const AppSpec &spec() const { return spec_; }

  private:
    struct SpecResume;

    /** Allocations + input transfers; returns the launch cursor. */
    SpecResume setup(rt::Context &ctx,
                     const WorkloadParams &params) const;
    /** Launches with ordinal in [st.next_launch, to_launch). */
    void runLaunchRange(rt::Context &ctx,
                        const WorkloadParams &params, SpecResume &st,
                        int to_launch) const;
    /** Final sync, output transfers, frees. */
    void teardown(rt::Context &ctx, SpecResume &st) const;

    AppSpec spec_;
};

/** Register a spec-driven workload in the global registry. */
void registerSpec(AppSpec spec);

/** Force registration of all built-in suites (idempotent). */
void ensureSuitesRegistered();

} // namespace hcc::workloads

#endif // HCC_WORKLOADS_SPEC_HPP
