#include "workload/app_profile.h"

#include "util/logging.h"

namespace exist {

double
AppProfile::terminatorWeightSum() const
{
    return w_cond + w_djump + w_dcall + w_ijump + w_icall + w_ret;
}

namespace {

using CW = std::array<double, kNumFunctionCategories>;

/**
 * Build a category-weight vector. Arguments are panel masses and
 * within-panel mixes:
 *   mem   = {JE, TC, ALLOC, FREE, COPY, SET, CMP, MOVE}
 *   sync  = {ATOMIC, SPINLOCK, MUTEX, CAS}
 *   kern  = {SCHE, IRQ, NET}
 * The compute share absorbs the remainder so the vector sums to 1.
 */
CW
weights(double mem_mass, std::array<double, 8> mem,
        double sync_mass, std::array<double, 4> sync,
        double kern_mass, std::array<double, 3> kern)
{
    CW w{};
    auto norm = [](auto &arr) {
        double s = 0;
        for (double v : arr)
            s += v;
        if (s > 0)
            for (double &v : arr)
                v /= s;
    };
    norm(mem);
    norm(sync);
    norm(kern);
    double compute = 1.0 - mem_mass - sync_mass - kern_mass;
    EXIST_ASSERT(compute >= 0.0, "category masses exceed 1");
    w[static_cast<std::size_t>(FunctionCategory::kCompute)] = compute;
    for (int i = 0; i < 8; ++i)
        w[static_cast<std::size_t>(FunctionCategory::kMemJe) + i] =
            mem_mass * mem[i];
    for (int i = 0; i < 4; ++i)
        w[static_cast<std::size_t>(FunctionCategory::kSyncAtomic) + i] =
            sync_mass * sync[i];
    for (int i = 0; i < 3; ++i)
        w[static_cast<std::size_t>(FunctionCategory::kKernelSche) + i] =
            kern_mass * kern[i];
    return w;
}

/** Default weight mix for compute-only benchmarks. */
CW
computeWeights()
{
    return weights(0.10, {5, 3, 25, 18, 20, 10, 12, 7},
                   0.02, {40, 20, 30, 10},
                   0.03, {60, 25, 15});
}

AppProfile
computeApp(const std::string &name, const std::string &desc)
{
    AppProfile p;
    p.name = name;
    p.description = desc;
    p.category_weights = computeWeights();
    return p;
}

AppProfile
serviceApp(const std::string &name, const std::string &desc)
{
    AppProfile p;
    p.name = name;
    p.description = desc;
    p.is_service = true;
    p.syscalls_per_kinsn = 0.15;
    p.blocking_fraction = 0.10;
    p.category_weights = weights(0.18, {10, 6, 22, 16, 18, 8, 12, 8},
                                 0.06, {30, 15, 40, 15},
                                 0.10, {40, 20, 40});
    return p;
}

}  // namespace

std::vector<AppProfile>
AppCatalog::specSuite()
{
    std::vector<AppProfile> suite;

    {  // 600.perlbench_s: interpreter, indirect-branch heavy.
        AppProfile p = computeApp("pb", "Perl interpreter");
        p.base_cpi = 1.10;
        p.num_functions = 420;
        p.w_icall = 0.07;
        p.w_ijump = 0.06;
        p.branch_miss_pki = 9.0;
        p.syscalls_per_kinsn = 0.045;
        p.binary_bytes = 12ull << 20;
        suite.push_back(p);
    }
    {  // 602.gcc_s: huge code footprint, many small functions.
        AppProfile p = computeApp("gcc", "GNU C compiler");
        p.base_cpi = 1.05;
        p.num_functions = 900;
        p.min_blocks_per_fn = 2;
        p.max_blocks_per_fn = 30;
        p.branch_miss_pki = 7.0;
        p.l1_miss_pki = 26.0;
        p.syscalls_per_kinsn = 0.060;
        p.binary_bytes = 90ull << 20;
        suite.push_back(p);
    }
    {  // 605.mcf_s: memory bound pointer chasing.
        AppProfile p = computeApp("mcf", "Route planning");
        p.base_cpi = 2.10;
        p.num_functions = 60;
        p.llc_miss_pki = 12.0;
        p.l1_miss_pki = 60.0;
        p.llc_sensitivity = 0.08;
        p.syscalls_per_kinsn = 0.020;
        p.binary_bytes = 2ull << 20;
        suite.push_back(p);
    }
    {  // 620.omnetpp_s: discrete-event simulation, virtual dispatch.
        AppProfile p = computeApp("om", "Discrete event simulation");
        p.base_cpi = 1.55;
        p.num_functions = 500;
        p.w_icall = 0.06;
        p.llc_miss_pki = 4.0;
        p.llc_sensitivity = 0.06;
        p.syscalls_per_kinsn = 0.030;
        p.binary_bytes = 28ull << 20;
        suite.push_back(p);
    }
    {  // 623.xalancbmk_s: XML transformation, string heavy.
        AppProfile p = computeApp("xa", "XML to HTML conversion");
        p.base_cpi = 1.15;
        p.num_functions = 700;
        p.l1_miss_pki = 30.0;
        p.syscalls_per_kinsn = 0.050;
        p.binary_bytes = 75ull << 20;
        suite.push_back(p);
    }
    {  // 625.x264_s: SIMD video encoder, few branches.
        AppProfile p = computeApp("x264", "Video compression");
        p.base_cpi = 0.80;
        p.num_functions = 300;
        p.avg_insns_per_block = 70.0;
        p.w_cond = 0.48;
        p.branch_miss_pki = 2.0;
        p.syscalls_per_kinsn = 0.015;
        p.binary_bytes = 10ull << 20;
        suite.push_back(p);
    }
    {  // 631.deepsjeng_s: alpha-beta search, recursion.
        AppProfile p = computeApp("de", "Alpha-beta tree search");
        p.base_cpi = 1.00;
        p.num_functions = 120;
        p.w_dcall = 0.14;
        p.w_ret = 0.23;
        p.branch_miss_pki = 8.0;
        p.syscalls_per_kinsn = 0.030;
        p.binary_bytes = 4ull << 20;
        suite.push_back(p);
    }
    {  // 641.leela_s: Monte-Carlo tree search.
        AppProfile p = computeApp("le", "Monte Carlo tree search");
        p.base_cpi = 1.10;
        p.num_functions = 180;
        p.branch_miss_pki = 6.5;
        p.syscalls_per_kinsn = 0.035;
        p.binary_bytes = 6ull << 20;
        suite.push_back(p);
    }
    {  // 648.exchange2_s: recursive generator, extremely branchy.
        AppProfile p = computeApp("ex", "Recursive solution generator");
        p.base_cpi = 0.90;
        p.num_functions = 40;
        p.avg_insns_per_block = 30.0;
        p.w_cond = 0.66;
        p.branch_miss_pki = 3.0;
        p.syscalls_per_kinsn = 0.012;
        p.binary_bytes = 3ull << 20;
        suite.push_back(p);
    }
    {  // 657.xz_s: data compression, the one multi-threaded member.
        AppProfile p = computeApp("xz", "General data compression");
        p.base_cpi = 1.30;
        p.num_functions = 150;
        p.num_threads = 4;
        p.l1_miss_pki = 35.0;
        p.llc_miss_pki = 3.0;
        p.syscalls_per_kinsn = 0.025;
        p.binary_bytes = 1ull << 20;
        suite.push_back(p);
    }
    return suite;
}

std::vector<AppProfile>
AppCatalog::auxSuite()
{
    std::vector<AppProfile> suite;

    {  // 619.lbm_s-style fluid-dynamics stencil: the loop-heavy end of
       // the spectrum. Nearly all control flow is loop backedges over
       // wide vectorized bodies — calls and returns are rare, so the
       // packet stream is long runs of strongly-biased TNT bits. This
       // is the profile the decode fast path (DESIGN.md §11) targets.
        AppProfile p = computeApp("lbm", "Fluid dynamics stencil");
        p.base_cpi = 0.70;
        p.num_functions = 24;
        p.min_blocks_per_fn = 4;
        p.avg_insns_per_block = 90.0;
        p.w_cond = 0.82;
        p.w_djump = 0.09;
        p.w_dcall = 0.03;
        p.w_ijump = 0.010;
        p.w_icall = 0.005;
        p.w_ret = 0.045;
        p.taken_bias = 0.86;
        p.branch_miss_pki = 0.6;
        p.l1_miss_pki = 28.0;
        p.phase_strength = 0.15;
        p.binary_bytes = 1ull << 20;
        suite.push_back(p);
    }
    return suite;
}

std::vector<AppProfile>
AppCatalog::onlineSuite()
{
    std::vector<AppProfile> suite;

    {  // Memcached under memtier, 1:1 set/get.
        AppProfile p = serviceApp("mc", "In-memory cache");
        p.base_cpi = 1.25;
        p.num_threads = 4;
        p.demand_mean_insns = 18'000.0;
        p.demand_cv = 0.6;
        p.syscalls_per_kinsn = 0.17;
        p.l1_miss_pki = 28.0;
        p.llc_miss_pki = 2.5;
        p.binary_bytes = 1ull << 20;
        suite.push_back(p);
    }
    {  // Nginx serving small static files under ab.
        AppProfile p = serviceApp("ng", "Web server");
        p.base_cpi = 1.15;
        p.num_threads = 4;
        p.demand_mean_insns = 26'000.0;
        p.demand_cv = 0.5;
        p.syscalls_per_kinsn = 0.15;
        p.binary_bytes = 2ull << 20;
        suite.push_back(p);
    }
    {  // MySQL with sysbench read/write on ten tables.
        AppProfile p = serviceApp("ms", "Online database");
        p.base_cpi = 1.40;
        p.num_threads = 8;
        p.demand_mean_insns = 140'000.0;
        p.demand_cv = 1.0;
        p.syscalls_per_kinsn = 0.05;
        p.blocking_fraction = 0.20;
        p.blocking_io_us_mean = 220.0;
        p.llc_miss_pki = 3.0;
        p.binary_bytes = 60ull << 20;
        suite.push_back(p);
    }
    return suite;
}

std::vector<AppProfile>
AppCatalog::cloudSuite()
{
    std::vector<AppProfile> suite;

    {  // Latency-sensitive CPU-set search engine (Havenask-like).
        AppProfile p = serviceApp("Search1", "LC CPU-set search engine");
        p.provision = ProvisionMode::kCpuSet;
        p.base_cpi = 1.20;
        p.num_threads = 6;
        p.demand_mean_insns = 120'000.0;
        p.demand_cv = 0.9;
        p.downstream_rpcs = 3;
        p.priority = 0.95;
        p.binary_bytes = 300ull << 20;
        p.past_incidents = 4;
        suite.push_back(p);
    }
    {  // Same engine under CPU-share provisioning.
        AppProfile p = serviceApp("Search2", "LC CPU-share search engine");
        p.provision = ProvisionMode::kCpuShare;
        p.base_cpi = 1.20;
        p.num_threads = 6;
        p.demand_mean_insns = 120'000.0;
        p.demand_cv = 0.9;
        p.downstream_rpcs = 3;
        p.priority = 0.9;
        p.binary_bytes = 300ull << 20;
        p.past_incidents = 3;
        suite.push_back(p);
    }
    {  // Best-effort in-memory graph cache (iGraph-like).
        AppProfile p = serviceApp("Cache", "BE memory graph caching");
        p.provision = ProvisionMode::kCpuShare;
        p.base_cpi = 1.60;
        p.num_threads = 4;
        p.demand_mean_insns = 60'000.0;
        p.llc_miss_pki = 8.0;
        p.l1_miss_pki = 45.0;
        p.priority = 0.3;
        p.binary_bytes = 80ull << 20;
        p.past_incidents = 1;
        suite.push_back(p);
    }
    {  // ML click-through-rate prediction (RTP-like).
        AppProfile p = serviceApp("Pred", "ML CTR prediction");
        p.provision = ProvisionMode::kCpuShare;
        p.base_cpi = 0.95;
        p.num_threads = 8;
        p.avg_insns_per_block = 80.0;
        p.w_cond = 0.45;
        p.demand_mean_insns = 350'000.0;
        p.demand_cv = 0.5;
        p.priority = 0.8;
        p.binary_bytes = 500ull << 20;
        p.past_incidents = 2;
        p.width_ro = {0.10, 0.15, 0.25, 0.50};
        p.width_wo = {0.10, 0.15, 0.30, 0.45};
        p.width_rw = {0.08, 0.12, 0.30, 0.50};
        suite.push_back(p);
    }
    {  // Node-level SLO management daemon: periodic, mostly idle.
        AppProfile p = serviceApp("Agent", "Node-level SLO daemon");
        p.provision = ProvisionMode::kCpuSet;
        p.base_cpi = 1.10;
        p.num_threads = 2;
        p.demand_mean_insns = 500'000.0;
        p.demand_cv = 0.3;
        p.syscalls_per_kinsn = 0.40;
        p.priority = 0.6;
        p.binary_bytes = 30ull << 20;
        p.past_incidents = 0;
        suite.push_back(p);
    }
    return suite;
}

std::vector<AppProfile>
AppCatalog::caseStudySuite()
{
    // Figure 21/22 applications. Search/Caching/Prediction are variants
    // of the cloud profiles, named apart from them (every catalog name
    // is unique, so find() reaches each entry); Matching (BE engine) and
    // Recommend (MVAP) are the two extra AI-powered applications. The
    // category mixes below encode the figure's qualitative findings:
    // Recommend is heavily multi-threaded with rescheduling interrupts
    // followed by mutex synchronization; ML apps have high quad-width
    // memory access ratios.
    std::vector<AppProfile> suite;

    {
        AppProfile p = serviceApp("Search", "CPU-intensive search");
        p.base_cpi = 1.2;
        p.num_threads = 6;
        p.category_weights =
            weights(0.16, {8, 5, 26, 17, 15, 9, 12, 8},
                    0.05, {21, 11, 56, 12},
                    0.08, {26, 17, 57});
        suite.push_back(p);
    }
    {
        AppProfile p = serviceApp("Caching", "Memory-intensive caching");
        p.base_cpi = 1.6;
        p.num_threads = 4;
        p.llc_miss_pki = 8.0;
        p.category_weights =
            weights(0.24, {5, 4, 17, 15, 22, 10, 15, 12},
                    0.04, {17, 8, 63, 12},
                    0.06, {17, 40, 43});
        suite.push_back(p);
    }
    {
        AppProfile p = serviceApp("Prediction", "ML CTR prediction");
        p.base_cpi = 0.95;
        p.num_threads = 8;
        p.width_ro = {0.10, 0.15, 0.25, 0.50};
        p.width_wo = {0.10, 0.15, 0.30, 0.45};
        p.width_rw = {0.08, 0.12, 0.30, 0.50};
        p.category_weights =
            weights(0.20, {26, 8, 15, 10, 20, 8, 7, 6},
                    0.06, {13, 10, 65, 12},
                    0.07, {40, 26, 34});
        suite.push_back(p);
    }
    {
        AppProfile p = serviceApp("Matching", "BE-engine matching");
        p.base_cpi = 1.05;
        p.num_threads = 8;
        p.width_ro = {0.12, 0.18, 0.30, 0.40};
        p.width_wo = {0.12, 0.18, 0.35, 0.35};
        p.width_rw = {0.10, 0.15, 0.30, 0.45};
        p.category_weights =
            weights(0.18, {17, 10, 22, 15, 14, 8, 8, 6},
                    0.07, {11, 9, 68, 12},
                    0.08, {48, 17, 35});
        suite.push_back(p);
    }
    {
        AppProfile p = serviceApp("Recommend", "MVAP recommendation");
        p.base_cpi = 1.00;
        p.num_threads = 12;
        p.width_ro = {0.08, 0.12, 0.25, 0.55};
        p.width_wo = {0.08, 0.12, 0.30, 0.50};
        p.width_rw = {0.06, 0.10, 0.27, 0.57};
        p.category_weights =
            weights(0.18, {15, 10, 17, 12, 18, 10, 10, 8},
                    0.10, {10, 7, 71, 12},
                    0.12, {46, 40, 14});
        suite.push_back(p);
    }
    return suite;
}

AppProfile
AppCatalog::find(const std::string &name)
{
    for (auto maker : {&AppCatalog::specSuite, &AppCatalog::onlineSuite,
                       &AppCatalog::cloudSuite, &AppCatalog::caseStudySuite,
                       &AppCatalog::auxSuite}) {
        for (auto &p : maker())
            if (p.name == name)
                return p;
    }
    EXIST_FATAL("unknown application profile '%s'", name.c_str());
}

std::vector<std::string>
AppCatalog::allNames()
{
    std::vector<std::string> names;
    for (auto maker : {&AppCatalog::specSuite, &AppCatalog::onlineSuite,
                       &AppCatalog::cloudSuite, &AppCatalog::caseStudySuite,
                       &AppCatalog::auxSuite}) {
        for (auto &p : maker())
            names.push_back(p.name);
    }
    return names;
}

}  // namespace exist
