/**
 * @file
 * Figure 21 (case study): execution-time shares of costly functions in
 * three categories — memory operations, synchronization, kernel
 * operations — for five production applications, reconstructed from
 * EXIST traces by text-matching decoded functions against the symbol
 * table. Paper findings: ML-based apps (Prediction/Matching/Recommend)
 * differ from classical ones; Recommend is heavily multi-threaded, so
 * KERNEL_IRQ and SYNC_MUTEX dominate its panels.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "workload/function_category.h"

using namespace exist;
using namespace exist::bench;

int
main()
{
    printBanner("Figure 21: function-category profiles from decoded "
                "traces (per-panel % of instructions)");

    const std::vector<std::string> apps = {"Search", "Caching",
                                           "Prediction", "Matching",
                                           "Recommend"};

    for (const std::string &app : apps) {
        ExperimentSpec spec;
        spec.node.num_cores = 8;
        WorkloadSpec w{.app = app, .target = true};
        w.closed_clients = 12;
        spec.workloads.push_back(std::move(w));
        spec.backend = "EXIST";
        spec.session.period = scaledSeconds(0.4);
        spec.warmup = secondsToCycles(0.08);
        spec.decode = true;
        ExperimentResult r = Testbed::run(spec);

        // Aggregate decoded per-function instruction counts into the
        // category taxonomy via the symbol table.
        auto binary = Testbed::binaryForApp(app);
        std::vector<double> by_cat(kNumFunctionCategories, 0.0);
        for (std::size_t f = 0; f < r.decoded_function_insns.size();
             ++f) {
            by_cat[static_cast<std::size_t>(
                binary->function(static_cast<std::uint32_t>(f))
                    .category)] +=
                static_cast<double>(r.decoded_function_insns[f]);
        }

        auto panel = [&](const char *title, FunctionCategory lo,
                         FunctionCategory hi) {
            double total = 0;
            for (auto c = static_cast<std::size_t>(lo);
                 c <= static_cast<std::size_t>(hi); ++c)
                total += by_cat[c];
            std::printf("  %-22s", title);
            for (auto c = static_cast<std::size_t>(lo);
                 c <= static_cast<std::size_t>(hi); ++c) {
                std::printf(" %s=%2.0f%%",
                            functionCategoryName(
                                static_cast<FunctionCategory>(c)),
                            total > 0 ? 100 * by_cat[c] / total : 0.0);
            }
            std::printf("\n");
        };

        std::printf("%s (accuracy %.1f%%):\n", app.c_str(),
                    100 * r.accuracy_wall);
        panel("(a) Memory ops:", FunctionCategory::kMemJe,
              FunctionCategory::kMemMove);
        panel("(b) Synchronization:", FunctionCategory::kSyncAtomic,
              FunctionCategory::kSyncCas);
        panel("(c) Kernel ops:", FunctionCategory::kKernelSche,
              FunctionCategory::kKernelNet);
    }
    std::printf("\nPaper shape: Recommend shows elevated KERNEL_IRQ "
                "followed by SYNC_MUTEX (rescheduling interrupts + "
                "mutex convoys in a heavily multi-threaded service).\n");
    return 0;
}
