/**
 * @file
 * Golden tests for the per-cell writers of `hccsim sweep`, `faults`
 * and `serve`: each result is built by hand with one ok cell and one
 * failed cell whose label and error carry the characters CSV and
 * JSON must escape (comma, double quote, newline, tab, a control
 * byte).  The expected bytes are literal, so any drift in column
 * order, quoting, number formatting or the ok/error conventions
 * fails here before it reaches a committed baseline.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "fault/campaign.hpp"
#include "obs/registry.hpp"
#include "serve/serve.hpp"
#include "sweep/sweep.hpp"

namespace hcc {
namespace {

/** An error message carrying every character the writers escape. */
const char *const kNastyError = "boom, \"bad\"\nline\tx\x01y";

std::shared_ptr<obs::Registry>
registryWith(const std::string &counter, std::uint64_t value)
{
    auto reg = std::make_shared<obs::Registry>();
    reg->counter(counter).add(value);
    return reg;
}

template <typename Result, typename Fn>
std::string
render(const Result &result, Fn &&write)
{
    std::ostringstream os;
    write(result, os);
    return os.str();
}

// ------------------------------------------------------------ sweep

sweep::SweepResult
sweepResult()
{
    sweep::SweepResult r;
    r.cells.resize(2);

    sweep::CellResult &ok = r.cells[0];
    ok.cell.index = 0;
    ok.cell.app = "atax";
    ok.cell.cc = true;
    ok.cell.scale = 1.5;
    ok.cell.seed = 7;
    ok.ok = true;
    ok.result.end_to_end = 1000;
    auto &m = ok.result.metrics;
    m.launches = 3;
    m.kernels = 2;
    m.klo.add(10);
    m.klo.add(20);
    m.lqt.add(5);
    m.kqt.add(7);
    m.ket.add(100);
    m.copy_h2d = 11;
    m.copy_d2h = 12;
    m.copy_d2d = 13;
    ok.result.tdx.hypercalls = 4;
    ok.result.critical.bottleneck = trace::Bottleneck::CryptoBound;
    ok.result.critical.on_path_ps = 900;
    ok.result.stats = registryWith("runtime.api.launches", 3);

    sweep::CellResult &bad = r.cells[1];
    bad.cell.index = 1;
    bad.cell.app = "we,ird\"app\nx";
    bad.cell.uvm = true;
    bad.cell.scale = 2.0;
    bad.cell.seed = 8;
    bad.cell.overlap = tee::OverlapMode::Speculative;
    bad.error = kNastyError;
    return r;
}

TEST(GoldenWriters, SweepCsv)
{
    EXPECT_EQ(render(sweepResult(), sweep::writeCellsCsv),
              "index,label,app,cc,uvm,scale,seed,status,end_to_end_ps,"
              "launches,kernels,sum_klo_ps,sum_lqt_ps,sum_kqt_ps,"
              "sum_ket_ps,copy_h2d_ps,copy_d2h_ps,copy_d2d_ps,"
              "tdx_hypercalls,bottleneck,critical_path_ps,error\n"
              "0,atax.cc.x1.5.s7,atax,1,0,1.5,7,ok,1000,3,2,30,5,7,100,"
              "11,12,13,4,crypto-bound,900,\n"
              "1,\"we,ird\"\"app\nx.base.uvm.x2.s8.speculative\","
              "\"we,ird\"\"app\nx\",0,1,2,8,failed,,,,,,,,,,,,,,"
              "\"boom, \"\"bad\"\"\nline\tx\x01y\"\n");
}

TEST(GoldenWriters, SweepJson)
{
    EXPECT_EQ(render(sweepResult(), sweep::writeCellsJson),
              "[\n"
              "  {\"index\": 0, \"label\": \"atax.cc.x1.5.s7\", "
              "\"app\": \"atax\", \"cc\": true, \"uvm\": false, "
              "\"scale\": 1.5, \"seed\": 7, \"ok\": true, "
              "\"end_to_end_ps\": 1000, \"launches\": 3, "
              "\"kernels\": 2, \"sum_klo_ps\": 30, \"sum_lqt_ps\": 5, "
              "\"sum_kqt_ps\": 7, \"sum_ket_ps\": 100, "
              "\"copy_h2d_ps\": 11, \"copy_d2h_ps\": 12, "
              "\"copy_d2d_ps\": 13, \"tdx_hypercalls\": 4, "
              "\"bottleneck\": \"crypto-bound\", "
              "\"critical_path_ps\": 900},\n"
              "  {\"index\": 1, \"label\": "
              "\"we,ird\\\"app\\nx.base.uvm.x2.s8.speculative\", "
              "\"app\": \"we,ird\\\"app\\nx\", \"cc\": false, "
              "\"uvm\": true, \"scale\": 2, \"seed\": 8, "
              "\"ok\": false, "
              "\"error\": \"boom, \\\"bad\\\"\\nline\\tx\\u0001y\"}\n"
              "]\n");
}

TEST(GoldenWriters, SweepMergedStats)
{
    EXPECT_EQ(render(sweepResult(), sweep::writeMergedStats),
              "{\n"
              "  \"hccsim_stats_version\": 1,\n"
              "  \"stats\": {\n"
              "    \"cell0.atax.cc.x1.5.s7.runtime.api.launches\": "
              "{\"type\": \"counter\", \"value\": 3}\n"
              "  }\n"
              "}\n");
}

TEST(GoldenWriters, EmptyGridRendersEmptyArray)
{
    const sweep::SweepResult empty;
    EXPECT_EQ(render(empty, sweep::writeCellsJson), "[\n\n]\n");
}

// ----------------------------------------------------------- faults

fault::CampaignResult
campaignResult()
{
    fault::CampaignResult r;
    r.spec.app = "g,a\"p\np";
    r.cells.resize(2);

    fault::CampaignCellResult &ok = r.cells[0];
    ok.cell.index = 0;
    ok.cell.site = fault::Site::PcieReplay;
    ok.cell.rate = 0.25;
    ok.cell.seed = 3;
    ok.ok = true;
    ok.result.end_to_end = 2000;
    ok.slowdown = 1.25;
    ok.injected = 5;
    ok.recovered = 4;
    ok.retry_time_ps = 77;
    ok.result.critical.bottleneck = trace::Bottleneck::LinkBound;
    ok.result.critical.on_path_ps = 1500;
    ok.result.stats = registryWith("fault.pcie.replay.injected", 5);

    fault::CampaignCellResult &bad = r.cells[1];
    bad.cell.index = 1;
    bad.cell.baseline = true;
    bad.cell.seed = 3;
    bad.cell.overlap = tee::OverlapMode::DoubleBuffer;
    bad.error = kNastyError;
    return r;
}

TEST(GoldenWriters, CampaignCsv)
{
    EXPECT_EQ(render(campaignResult(), fault::writeCampaignCsv),
              "index,label,site,rate,seed,status,end_to_end_ps,"
              "slowdown,injected,recovered,retry_time_ps,bottleneck,"
              "critical_path_ps,error\n"
              "0,\"g,a\"\"p\np.pcie.replay.r0.25.s3\",pcie.replay,0.25,"
              "3,ok,2000,1.250000,5,4,77,link-bound,1500,\n"
              "1,\"g,a\"\"p\np.baseline.s3.double-buffer\",baseline,0,"
              "3,failed,,,,,,,,\"boom, \"\"bad\"\"\nline\tx\x01y\"\n");
}

TEST(GoldenWriters, CampaignJson)
{
    EXPECT_EQ(render(campaignResult(), fault::writeCampaignJson),
              "[\n"
              "  {\"index\": 0, \"label\": "
              "\"g,a\\\"p\\np.pcie.replay.r0.25.s3\", "
              "\"site\": \"pcie.replay\", \"rate\": 0.25, \"seed\": 3, "
              "\"ok\": true, \"end_to_end_ps\": 2000, "
              "\"slowdown\": 1.250000, \"injected\": 5, "
              "\"recovered\": 4, \"retry_time_ps\": 77, "
              "\"bottleneck\": \"link-bound\", "
              "\"critical_path_ps\": 1500},\n"
              "  {\"index\": 1, \"label\": "
              "\"g,a\\\"p\\np.baseline.s3.double-buffer\", "
              "\"site\": \"baseline\", \"rate\": 0, \"seed\": 3, "
              "\"ok\": false, "
              "\"error\": \"boom, \\\"bad\\\"\\nline\\tx\\u0001y\"}\n"
              "]\n");
}

TEST(GoldenWriters, CampaignMergedStats)
{
    EXPECT_EQ(render(campaignResult(), fault::writeCampaignStats),
              "{\n"
              "  \"hccsim_stats_version\": 1,\n"
              "  \"stats\": {\n"
              "    \"cell0.g,a\\\"p\\np.pcie.replay.r0.25.s3."
              "fault.pcie.replay.injected\": "
              "{\"type\": \"counter\", \"value\": 5}\n"
              "  }\n"
              "}\n");
}

// ------------------------------------------------------------ serve

serve::ServeResult
serveResult()
{
    serve::ServeResult r;
    r.cells.resize(2);

    serve::ServeCellResult &ok = r.cells[0];
    ok.cell.index = 0;
    ok.cell.load = 2.5;
    ok.cell.cc = true;
    ok.ok = true;
    serve::ServePoint &p = ok.point;
    p.requests = 10;
    p.completed = 9;
    p.preempted = 1;
    p.prefills = 11;
    p.tokens = 640;
    p.makespan = 123456;
    p.offered_tok_s = 160.0;
    p.goodput_tok_s = 150.25;
    p.ttft_p50 = 1;
    p.ttft_p95 = 2;
    p.ttft_p99 = 3;
    p.tpot_p50 = 4;
    p.tpot_p95 = 5;
    p.tpot_p99 = 6;
    p.kv_fault_batches = 7;
    p.kv_migrated_bytes = 8192;
    p.bottleneck = trace::Bottleneck::UvmThrash;
    p.critical_path_ps = 99999;
    p.stats = registryWith("serve.requests", 10);

    serve::ServeCellResult &bad = r.cells[1];
    bad.cell.index = 1;
    bad.cell.load = 0.5;
    bad.cell.overlap = tee::OverlapMode::Speculative;
    bad.error = kNastyError;
    return r;
}

/** The JSON row of the ok serve cell (shared by both JSON docs). */
const char *const kServeOkRow =
    "{\"index\": 0, \"label\": \"l2.5.cc\", \"load\": 2.5, "
    "\"cc\": true, \"overlap\": \"none\", \"ok\": true, "
    "\"requests\": 10, \"completed\": 9, \"preempted\": 1, "
    "\"prefills\": 11, \"tokens\": 640, \"makespan_ps\": 123456, "
    "\"offered_tok_s\": 160, \"goodput_tok_s\": 150.25, "
    "\"ttft_p50_ps\": 1, \"ttft_p95_ps\": 2, \"ttft_p99_ps\": 3, "
    "\"tpot_p50_ps\": 4, \"tpot_p95_ps\": 5, \"tpot_p99_ps\": 6, "
    "\"kv_fault_batches\": 7, \"kv_migrated_bytes\": 8192, "
    "\"bottleneck\": \"uvm-thrash\", \"critical_path_ps\": 99999}";

const char *const kServeBadRow =
    "{\"index\": 1, \"label\": \"l0.5.base.speculative\", "
    "\"load\": 0.5, \"cc\": false, \"overlap\": \"speculative\", "
    "\"ok\": false, "
    "\"error\": \"boom, \\\"bad\\\"\\nline\\tx\\u0001y\"}";

TEST(GoldenWriters, ServeCsv)
{
    EXPECT_EQ(render(serveResult(), serve::writeServeCsv),
              "index,label,load,cc,overlap,requests,completed,"
              "preempted,prefills,tokens,makespan_ps,offered_tok_s,"
              "goodput_tok_s,ttft_p50_ps,ttft_p95_ps,ttft_p99_ps,"
              "tpot_p50_ps,tpot_p95_ps,tpot_p99_ps,kv_fault_batches,"
              "kv_migrated_bytes,bottleneck,critical_path_ps,error\n"
              "0,l2.5.cc,2.5,1,none,10,9,1,11,640,123456,160,150.25,"
              "1,2,3,4,5,6,7,8192,uvm-thrash,99999,\n"
              "1,l0.5.base.speculative,0.5,0,speculative,"
              ",,,,,,,,,,,,,,,,,,"
              "\"boom, \"\"bad\"\"\nline\tx\x01y\"\n");
}

TEST(GoldenWriters, ServeJson)
{
    EXPECT_EQ(render(serveResult(), serve::writeServeJson),
              std::string("[\n  ") + kServeOkRow + ",\n  "
                  + kServeBadRow + "\n]\n");
}

TEST(GoldenWriters, ServeStatsEmbedsTheJsonRows)
{
    EXPECT_EQ(render(serveResult(), serve::writeServeStats),
              std::string("{\n"
                          "  \"hccsim_stats_version\": 1,\n"
                          "  \"serve_curve\": [")
                  + kServeOkRow + ", " + kServeBadRow
                  + "],\n"
                    "  \"stats\": {\n"
                    "    \"cell0.l2.5.cc.serve.requests\": "
                    "{\"type\": \"counter\", \"value\": 10}\n"
                    "  }\n"
                    "}\n");
}

} // namespace
} // namespace hcc
