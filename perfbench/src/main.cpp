/**
 * @file
 * hccbench: one benchmark invocation.  perfbench/run.py builds this
 * binary and is the entry point; see perfbench/README.md.
 *
 *   hccbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--root DIR] [--spawned-ns T] [--setup-only]
 *
 * Op outputs and the span file go to
 * ROOT/.bench_build/perfbench-out/NAME.
 *
 * Prints a human report, then one JSON result line, last.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int
usage(const std::string &error)
{
    std::cerr << "hccbench: " << error
              << "\nusage: hccbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--root DIR] "
                 "[--spawned-ns T] [--setup-only]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig cfg;
    cfg.root = std::filesystem::current_path();
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string &a = args[i];
            if (a == "--setup-only") {
                cfg.setup_only = true;
                continue;
            }
            if (i + 1 >= args.size())
                return usage(a + " requires a value");
            const std::string &v = args[++i];
            if (a == "--workload")
                cfg.workload = v;
            else if (a == "--seed")
                cfg.seed = std::stoull(v);
            else if (a == "--seconds")
                cfg.seconds = std::stod(v);
            else if (a == "--trace")
                cfg.trace = std::stoi(v) != 0;
            else if (a == "--root")
                cfg.root = v;
            else if (a == "--spawned-ns")
                cfg.spawned = std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(std::stoll(v)));
            else
                return usage("unknown argument " + a);
        }
    } catch (const std::exception &) {
        return usage("bad argument value");
    }
    const auto &names = perfbench::workloadNames();
    if (std::find(names.begin(), names.end(), cfg.workload) == names.end())
        return usage("unknown workload '" + cfg.workload + "'");
    if (!(cfg.seconds > 0))
        return usage("--seconds must be positive");
    cfg.out_dir = cfg.root / ".bench_build" / "perfbench-out" / cfg.workload;
    try {
        const auto result = perfbench::runBenchmark(cfg);
        std::cout << result.report
                  << perfbench::resultJson(result.correct,
                                           result.attempted,
                                           result.failed, result.metrics)
                  << std::endl;
        return result.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "hccbench: " << e.what() << "\n";
        return 1;
    }
}
