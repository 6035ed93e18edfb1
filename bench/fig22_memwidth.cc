/**
 * @file
 * Figure 22 (case study): memory-access-width mixes (1/2/4/8 bytes) for
 * read-only, write-only and read-write accesses of the five case-study
 * applications, derived from decoded instruction volumes and the
 * binaries' access-width signatures. Paper finding: ML-based
 * applications perform significantly more quad-width (8-byte) accesses
 * (25-70%), consistent with reduced-precision/high-throughput serving.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "workload/app_profile.h"

using namespace exist;
using namespace exist::bench;

int
main()
{
    printBanner("Figure 22: memory access width analysis (percent per "
                "width 1/2/4/8)");

    const std::vector<std::string> apps = {"Search", "Caching",
                                           "Prediction", "Matching",
                                           "Recommend"};

    TableWriter table({"App", "Type", "w1", "w2", "w4", "w8",
                       "Accesses(M)"});
    for (const std::string &app : apps) {
        ExperimentSpec spec;
        spec.node.num_cores = 8;
        WorkloadSpec w{.app = app, .target = true};
        w.closed_clients = 12;
        spec.workloads.push_back(std::move(w));
        spec.backend = "EXIST";
        spec.session.period = scaledSeconds(0.3);
        spec.warmup = secondsToCycles(0.08);
        spec.decode = true;
        ExperimentResult r = Testbed::run(spec);

        AppProfile profile = AppCatalog::find(app);
        double insns = 0;
        for (std::uint64_t v : r.decoded_function_insns)
            insns += static_cast<double>(v);
        double accesses =
            insns * profile.mem_access_per_kinsn / 1000.0;
        double ro = accesses * profile.read_only_ratio;
        double wo = accesses * profile.write_only_ratio;
        double rw = accesses - ro - wo;

        auto rowFor = [&](const char *type, double count,
                          const WidthMix &mix) {
            table.row({app, type, TableWriter::pct(mix[0], 0),
                       TableWriter::pct(mix[1], 0),
                       TableWriter::pct(mix[2], 0),
                       TableWriter::pct(mix[3], 0),
                       TableWriter::num(count / 1e6, 1)});
        };
        rowFor("RO", ro, profile.width_ro);
        rowFor("WO", wo, profile.width_wo);
        rowFor("RW", rw, profile.width_rw);
    }
    table.print();
    std::printf("\nPaper shape: ML-based applications show markedly "
                "higher 8-byte access ratios (25-70%%).\n");
    return 0;
}
