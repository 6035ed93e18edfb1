/**
 * @file
 * Tests for the program model: structural invariants of generated
 * binaries (parameterized over the whole application catalog) and
 * behavioural properties of the execution engine.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/app_profile.h"
#include "workload/execution.h"
#include "workload/program.h"

namespace exist {
namespace {

class GenerationInvariants
    : public ::testing::TestWithParam<std::string>
{
  protected:
    ProgramBinary
    make(std::uint64_t seed = 0x5eed) const
    {
        return ProgramBinary::generate(AppCatalog::find(GetParam()),
                                       seed);
    }
};

TEST_P(GenerationInvariants, TargetsAreValidBlocks)
{
    ProgramBinary prog = make();
    for (const BasicBlock &b : prog.blocks()) {
        switch (b.kind) {
          case BranchKind::kConditional:
            ASSERT_LT(b.target0, prog.numBlocks());
            ASSERT_LT(b.target1, prog.numBlocks());
            break;
          case BranchKind::kDirectJump:
          case BranchKind::kDirectCall:
            ASSERT_LT(b.target0, prog.numBlocks());
            break;
          case BranchKind::kSyscall:
            ASSERT_LT(b.target1, prog.numBlocks());
            break;
          case BranchKind::kIndirectJump:
          case BranchKind::kIndirectCall:
            ASSERT_GT(b.itable_count, 0u);
            for (std::uint32_t i = 0; i < b.itable_count; ++i)
                ASSERT_LT(prog.indirectTargets()[b.itable_begin + i]
                              .block,
                          prog.numBlocks());
            break;
          case BranchKind::kReturn:
            break;
        }
    }
}

TEST_P(GenerationInvariants, DirectCallsFormDag)
{
    // Callee function id strictly greater than caller id: statically
    // followed call chains must terminate (decoder liveness).
    ProgramBinary prog = make();
    for (const BasicBlock &b : prog.blocks()) {
        if (b.kind != BranchKind::kDirectCall)
            continue;
        const BasicBlock &callee = prog.block(b.target0);
        EXPECT_GT(callee.function_id, b.function_id);
    }
}

TEST_P(GenerationInvariants, DirectJumpsAreForward)
{
    ProgramBinary prog = make();
    for (std::uint32_t i = 0; i < prog.numBlocks(); ++i) {
        const BasicBlock &b = prog.block(i);
        if (b.kind != BranchKind::kDirectJump)
            continue;
        // Exception: the main loop's final block jumps back to entry.
        const ProgramFunction &fn = prog.function(b.function_id);
        if (b.function_id == 0 && i == fn.first_block + fn.num_blocks - 1)
            continue;
        EXPECT_GT(b.target0, i);
    }
}

TEST_P(GenerationInvariants, MainLoopHasNoReturns)
{
    ProgramBinary prog = make();
    const ProgramFunction &main_fn = prog.function(0);
    for (std::uint32_t i = 0; i < main_fn.num_blocks; ++i)
        EXPECT_NE(prog.block(main_fn.first_block + i).kind,
                  BranchKind::kReturn);
    // And its entry consumes a TNT bit (cycle-safety).
    EXPECT_EQ(prog.block(main_fn.entry_block).kind,
              BranchKind::kConditional);
}

TEST_P(GenerationInvariants, AddressesMonotonicAndResolvable)
{
    ProgramBinary prog = make();
    std::uint64_t prev_end = 0;
    for (std::uint32_t i = 0; i < prog.numBlocks(); ++i) {
        const BasicBlock &b = prog.block(i);
        ASSERT_GE(b.address, prev_end);
        prev_end = b.address + b.size_bytes;
        // Start, middle and last byte all resolve to this block.
        EXPECT_EQ(prog.blockAtAddress(b.address), i);
        EXPECT_EQ(prog.blockAtAddress(b.address + b.size_bytes / 2), i);
        EXPECT_EQ(prog.blockAtAddress(b.address + b.size_bytes - 1), i);
    }
    EXPECT_EQ(prog.blockAtAddress(0), kNoBlock);
    EXPECT_EQ(prog.blockAtAddress(prev_end + 1024), kNoBlock);
}

TEST_P(GenerationInvariants, DeterministicInSeed)
{
    ProgramBinary a = make(77), b = make(77), c = make(78);
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    for (std::uint32_t i = 0; i < a.numBlocks(); ++i) {
        EXPECT_EQ(a.block(i).address, b.block(i).address);
        EXPECT_EQ(a.block(i).kind, b.block(i).kind);
        EXPECT_EQ(a.block(i).target0, b.block(i).target0);
    }
    // A different seed must actually change the program.
    bool differs = a.numBlocks() != c.numBlocks();
    for (std::uint32_t i = 0; !differs && i < a.numBlocks(); ++i)
        differs = a.block(i).kind != c.block(i).kind ||
                  a.block(i).insns != c.block(i).insns;
    EXPECT_TRUE(differs);
}

TEST_P(GenerationInvariants, FunctionsPartitionBlocks)
{
    ProgramBinary prog = make();
    std::uint32_t covered = 0;
    for (const ProgramFunction &fn : prog.functions()) {
        EXPECT_EQ(fn.first_block, covered);
        EXPECT_EQ(fn.entry_block, fn.first_block);
        covered += fn.num_blocks;
        for (std::uint32_t i = 0; i < fn.num_blocks; ++i)
            EXPECT_EQ(prog.block(fn.first_block + i).function_id,
                      &fn - prog.functions().data());
    }
    EXPECT_EQ(covered, prog.numBlocks());
}

INSTANTIATE_TEST_SUITE_P(AllCatalogApps, GenerationInvariants,
                         ::testing::ValuesIn(AppCatalog::allNames()));

TEST(Execution, DeterministicForSameSeed)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("om"), 1);
    ExecutionContext a(&prog, 9), b(&prog, 9);
    for (int i = 0; i < 20000; ++i) {
        StepResult sa = a.step(), sb = b.step();
        ASSERT_EQ(sa.branch.source_block, sb.branch.source_block);
        ASSERT_EQ(sa.branch.target_block, sb.branch.target_block);
        ASSERT_EQ(sa.syscall, sb.syscall);
    }
}

TEST(Execution, TransitionsFollowStaticStructure)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("de"), 3);
    ExecutionContext exec(&prog, 5);
    for (int i = 0; i < 50000; ++i) {
        std::uint32_t before = exec.currentBlock();
        StepResult s = exec.step();
        ASSERT_EQ(s.branch.source_block, before);
        ASSERT_EQ(s.branch.target_block, exec.currentBlock());
        const BasicBlock &b = prog.block(before);
        if (b.kind == BranchKind::kConditional) {
            ASSERT_TRUE(s.branch.target_block == b.target0 ||
                        s.branch.target_block == b.target1);
        } else if (b.kind == BranchKind::kDirectJump ||
                   b.kind == BranchKind::kDirectCall) {
            ASSERT_EQ(s.branch.target_block, b.target0);
        }
    }
}

TEST(Execution, SyscallRateTracksProfile)
{
    AppProfile profile = AppCatalog::find("mc");
    profile.phase_strength = 0.0;  // isolate the rate property
    ProgramBinary prog = ProgramBinary::generate(profile, 6);
    ExecutionContext exec(&prog, 7);
    std::uint64_t insns = 0, syscalls = 0;
    for (int i = 0; i < 400000; ++i) {
        StepResult s = exec.step();
        insns += s.insns;
        syscalls += s.syscall ? 1 : 0;
    }
    double rate = 1000.0 * static_cast<double>(syscalls) /
                  static_cast<double>(insns);
    EXPECT_NEAR(rate, profile.syscalls_per_kinsn,
                profile.syscalls_per_kinsn * 0.15);
}

TEST(Execution, PhasesShiftFunctionMix)
{
    // With phases enabled, two far-apart windows of the same run have
    // visibly different function distributions; with phases disabled
    // they are nearly identical.
    auto window_profiles = [](double strength) {
        AppProfile profile = AppCatalog::find("Search1");
        profile.phase_strength = strength;
        ProgramBinary prog = ProgramBinary::generate(profile, 8);
        ExecutionContext exec(&prog, 9);
        std::map<std::uint32_t, double> w1, w2;
        for (int i = 0; i < 150000; ++i)
            w1[prog.block(exec.step().branch.source_block)
                   .function_id] += 1;
        for (int i = 0; i < 150000; ++i)
            exec.step();  // skip a phase
        for (int i = 0; i < 150000; ++i)
            w2[prog.block(exec.step().branch.source_block)
                   .function_id] += 1;
        double l1 = 0;
        std::set<std::uint32_t> keys;
        for (auto &[k, v] : w1)
            keys.insert(k);
        for (auto &[k, v] : w2)
            keys.insert(k);
        for (std::uint32_t k : keys)
            l1 += std::abs(w1[k] / 150000 - w2[k] / 150000);
        return l1;
    };
    EXPECT_GT(window_profiles(0.5), window_profiles(0.0));
}

TEST(Execution, CallDepthIsBounded)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("de"), 10);
    ExecutionContext exec(&prog, 11);
    for (int i = 0; i < 200000; ++i) {
        exec.step();
        ASSERT_LE(exec.callDepth(), 96u);
    }
}

TEST(Catalog, FindsAllSuitesAndRejectsUnknown)
{
    EXPECT_EQ(AppCatalog::specSuite().size(), 10u);
    EXPECT_EQ(AppCatalog::onlineSuite().size(), 3u);
    EXPECT_EQ(AppCatalog::cloudSuite().size(), 5u);
    EXPECT_EQ(AppCatalog::caseStudySuite().size(), 5u);
    EXPECT_EQ(AppCatalog::find("mcf").name, "mcf");
    EXPECT_DEATH(AppCatalog::find("no-such-app"), "unknown");
}

TEST(Catalog, NamesAreUniqueAndFindReachesEveryEntry)
{
    std::set<std::string> seen;
    for (auto suite : {AppCatalog::specSuite(), AppCatalog::onlineSuite(),
                       AppCatalog::cloudSuite(),
                       AppCatalog::caseStudySuite(),
                       AppCatalog::auxSuite()})
        for (const AppProfile &p : suite) {
            EXPECT_TRUE(seen.insert(p.name).second)
                << "duplicate app name " << p.name;
            // find() must return this very entry, not a namesake.
            AppProfile found = AppCatalog::find(p.name);
            EXPECT_EQ(found.description, p.description) << p.name;
            EXPECT_EQ(found.base_cpi, p.base_cpi) << p.name;
            EXPECT_EQ(found.num_threads, p.num_threads) << p.name;
        }
    EXPECT_EQ(seen.size(), AppCatalog::allNames().size());
}

TEST(Catalog, CategoryWeightsNormalized)
{
    for (const std::string &name : AppCatalog::allNames()) {
        AppProfile p = AppCatalog::find(name);
        double sum = 0;
        for (double w : p.category_weights)
            sum += w;
        EXPECT_NEAR(sum, 1.0, 1e-9) << name;
    }
}

}  // namespace
}  // namespace exist
