/**
 * @file
 * Paper-shape regression tests: scaled-down versions of the key
 * evaluation claims that must hold for the figure benches to
 * reproduce the paper's qualitative results. Each test cites the
 * paper section or figure it guards.
 */

#include <gtest/gtest.h>

#include "analysis/harness.h"
#include "analysis/savings.h"
#include "core/policy_factory.h"
#include "tests/common/sim_test_util.h"
#include "trace/region_model.h"
#include "workload/generators.h"

namespace gaia {
namespace {

/** Shared scenario: week-long Alibaba trace in South Australia. */
class WeekScenario : public ::testing::Test
{
  protected:
    WeekScenario()
        : trace_(makeWeekTrace(1)),
          carbon_(makeRegionTrace(Region::SouthAustralia, 24 * 12,
                                  1)),
          cis_(carbon_),
          queues_(calibratedQueues(trace_))
    {
    }

    SimulationResult
    run(const std::string &policy, ClusterConfig cluster = {},
        ResourceStrategy strategy = ResourceStrategy::OnDemandOnly)
    {
        return testutil::runSim(trace_, *makePolicy(policy), queues_,
                                cis_, cluster, strategy);
    }

    JobTrace trace_;
    CarbonTrace carbon_;
    CarbonInfoService cis_;
    QueueConfig queues_;
};

TEST_F(WeekScenario, Figure8CarbonOrdering)
{
    // Suspend-resume policies achieve the lowest carbon; the
    // start-time policies trade a little carbon away; NoWait is the
    // carbon-agnostic ceiling.
    const double nowait = run("NoWait").carbon_kg;
    const double wa = run("Wait-Awhile").carbon_kg;
    const double eco = run("Ecovisor").carbon_kg;
    const double lw = run("Lowest-Window").carbon_kg;
    const double ct = run("Carbon-Time").carbon_kg;
    const double ls = run("Lowest-Slot").carbon_kg;

    EXPECT_LT(wa, nowait);
    EXPECT_LT(eco, nowait);
    EXPECT_LT(lw, nowait);
    EXPECT_LT(ct, nowait);
    EXPECT_LT(ls, nowait);
    // Wait-Awhile (exact length + suspension) is the floor.
    EXPECT_LE(wa, lw * 1.001);
    EXPECT_LE(wa, eco * 1.001);
    // Lowest-Window stays within a modest gap of Wait-Awhile
    // (paper: 16% more carbon).
    EXPECT_LT(lw, wa * 1.6);
}

TEST_F(WeekScenario, Figure8WaitingOrdering)
{
    // Carbon-Time halves Wait-Awhile's performance penalty (paper:
    // 50% lower waiting) and undercuts Lowest-Window.
    const double wa = run("Wait-Awhile").meanWaitingHours();
    const double ct = run("Carbon-Time").meanWaitingHours();
    const double lw = run("Lowest-Window").meanWaitingHours();
    const double nowait = run("NoWait").meanWaitingHours();

    EXPECT_DOUBLE_EQ(nowait, 0.0);
    EXPECT_LE(ct, lw + 1e-9);
    EXPECT_LT(ct, wa * 0.8);
}

TEST_F(WeekScenario, Figure9MediumJobsCarryTheSavings)
{
    // §6.2.2: sub-hour jobs contribute ~10% of savings despite
    // being ~half the jobs; 3-12 h jobs contribute ~50%.
    const SimulationResult r = run("Carbon-Time");
    const double short_share = savingsShareByLength(r, 0.0, 1.0);
    const double medium_share =
        savingsShareByLength(r, 3.0, 12.0);
    EXPECT_LT(short_share, 0.35);
    EXPECT_GT(medium_share, 0.30);
}

TEST_F(WeekScenario, Figure10HybridCostOrdering)
{
    // With reserved capacity: AllWait is the cost floor, the
    // suspend-resume policies fragment demand and cost the most,
    // and RES-First-Carbon-Time lands in between while keeping
    // carbon savings.
    ClusterConfig cluster;
    cluster.reserved_cores = 9;

    const SimulationResult nowait =
        run("NoWait", cluster, ResourceStrategy::HybridGreedy);
    const SimulationResult allwait = run(
        "AllWait-Threshold", cluster,
        ResourceStrategy::ReservedFirst);
    const SimulationResult eco =
        run("Ecovisor", cluster, ResourceStrategy::HybridGreedy);
    const SimulationResult ct_greedy =
        run("Carbon-Time", cluster, ResourceStrategy::HybridGreedy);
    const SimulationResult res_ct = run(
        "Carbon-Time", cluster, ResourceStrategy::ReservedFirst);

    // Cost ordering (Figure 10).
    EXPECT_LT(allwait.totalCost(), nowait.totalCost());
    EXPECT_GT(eco.totalCost(), allwait.totalCost());
    EXPECT_LT(res_ct.totalCost(), ct_greedy.totalCost());
    // NoWait has the highest carbon.
    EXPECT_GT(nowait.carbon_kg, eco.carbon_kg);
    EXPECT_GT(nowait.carbon_kg, res_ct.carbon_kg);
    // RES-First keeps a meaningful share of Carbon-Time's savings.
    const double ct_saving =
        nowait.carbon_kg - ct_greedy.carbon_kg;
    const double res_saving = nowait.carbon_kg - res_ct.carbon_kg;
    EXPECT_GT(ct_saving, 0.0);
    EXPECT_GT(res_saving, 0.15 * ct_saving);
}

TEST_F(WeekScenario, Figure11ReservedSweepShape)
{
    // Cost is U-shaped in the reserved count with an interior
    // minimum; waiting decreases monotonically; carbon savings
    // shrink as reserved capacity grows.
    std::vector<int> sweep = {0, 8, 16, 24, 48};
    std::vector<double> cost, wait, carbon;
    for (int reserved : sweep) {
        ClusterConfig cluster;
        cluster.reserved_cores = reserved;
        const SimulationResult r = run(
            "Carbon-Time", cluster,
            reserved == 0 ? ResourceStrategy::OnDemandOnly
                          : ResourceStrategy::ReservedFirst);
        cost.push_back(r.totalCost());
        wait.push_back(r.meanWaitingHours());
        carbon.push_back(r.carbon_kg);
    }
    const double interior_min =
        std::min({cost[1], cost[2], cost[3]});
    EXPECT_LT(interior_min, cost[0]);
    EXPECT_LT(interior_min, cost.back());
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_LE(wait[i], wait[i - 1] + 1e-9);
    // More reserved capacity -> weakly more carbon (less temporal
    // flexibility); compare the extremes to avoid noise.
    EXPECT_GE(carbon.back(), carbon.front());
}

TEST_F(WeekScenario, Figure12SpotKeepsCarbonAtLowerCost)
{
    ClusterConfig no_spot;
    const SimulationResult ct = run("Carbon-Time", no_spot);

    ClusterConfig spot;
    spot.spot_max_length = 2 * kSecondsPerHour;
    const SimulationResult spot_ct =
        run("Carbon-Time", spot, ResourceStrategy::SpotFirst);

    // Same schedule, cheaper short jobs: carbon identical (no
    // evictions), cost strictly lower.
    EXPECT_NEAR(spot_ct.carbon_kg, ct.carbon_kg,
                ct.carbon_kg * 1e-9);
    EXPECT_LT(spot_ct.totalCost(), ct.totalCost());
    EXPECT_GT(spot_ct.spot_cost, 0.0);
}

TEST_F(WeekScenario, Figure2MotivatingTension)
{
    // §3: carbon-aware suspend-resume cuts carbon but inflates cost
    // and completion time on a reserved+on-demand cluster.
    const JobTrace motivating = makeMotivatingTrace(days(3), 2);
    const QueueConfig queues = calibratedQueues(motivating);
    const CarbonTrace california =
        makeRegionTrace(Region::CaliforniaUS, 24 * 8, 2);
    const CarbonInfoService cis(california);
    ClusterConfig cluster;
    cluster.reserved_cores = 5;

    const SimulationResult fcfs = testutil::runSim(
        motivating, *makePolicy("NoWait"), queues, cis, cluster,
        ResourceStrategy::HybridGreedy);
    const SimulationResult wa = testutil::runSim(
        motivating, *makePolicy("Wait-Awhile"), queues, cis, cluster,
        ResourceStrategy::HybridGreedy);

    EXPECT_LT(wa.carbon_kg, fcfs.carbon_kg * 0.95);
    EXPECT_GT(wa.totalCost(), fcfs.totalCost() * 1.1);
    EXPECT_GT(wa.meanCompletionHours(),
              fcfs.meanCompletionHours());
}

TEST_F(WeekScenario, Figure2SwedenBarelySavesCarbon)
{
    const JobTrace motivating = makeMotivatingTrace(days(3), 2);
    const QueueConfig queues = calibratedQueues(motivating);
    const CarbonTrace sweden =
        makeRegionTrace(Region::Sweden, 24 * 8, 2);
    const CarbonInfoService cis(sweden);

    const SimulationResult fcfs = testutil::runSim(
        motivating, *makePolicy("NoWait"), queues, cis);
    const SimulationResult wa = testutil::runSim(
        motivating, *makePolicy("Wait-Awhile"), queues, cis);
    const double saving =
        1.0 - wa.carbon_kg / fcfs.carbon_kg;
    EXPECT_LT(saving, 0.12); // paper: only ~4% in Sweden
    EXPECT_GE(saving, 0.0);
}

TEST_F(WeekScenario, Figure15RegionalSavingsOrdering)
{
    // §6.4.3: high-variability regions (SA) save a lot; stable
    // coal-heavy Kentucky saves ~nothing.
    const CarbonTrace kentucky =
        makeRegionTrace(Region::KentuckyUS, 24 * 12, 1);
    const CarbonInfoService cis_ky(kentucky);

    const double sa_saving =
        1.0 - run("Carbon-Time").carbon_kg /
                  run("NoWait").carbon_kg;
    const SimulationResult ky_ct = testutil::runSim(
        trace_, *makePolicy("Carbon-Time"), queues_, cis_ky);
    const SimulationResult ky_nw = testutil::runSim(
        trace_, *makePolicy("NoWait"), queues_, cis_ky);
    const double ky_saving = 1.0 - ky_ct.carbon_kg /
                                       ky_nw.carbon_kg;

    EXPECT_GT(sa_saving, 0.10);
    EXPECT_LT(ky_saving, 0.05);
    EXPECT_GT(sa_saving, ky_saving);
}

TEST_F(WeekScenario, Figure18EvictionErodesSpotBenefits)
{
    // §6.4.5: with evictions, widening the spot bound stops paying
    // off in cost and strictly costs carbon.
    const auto run_spot = [&](Seconds jmax, double rate) {
        ClusterConfig cluster;
        cluster.spot_max_length = jmax;
        cluster.spot_eviction_rate = rate;
        return run("Carbon-Time", cluster,
                   ResourceStrategy::SpotFirst);
    };

    // Without evictions, a wider spot bound only helps cost.
    const double cost_narrow_q0 =
        run_spot(2 * kSecondsPerHour, 0.0).totalCost();
    const double cost_wide_q0 =
        run_spot(24 * kSecondsPerHour, 0.0).totalCost();
    EXPECT_LT(cost_wide_q0, cost_narrow_q0);

    // With a 15%/h eviction rate, the wide bound emits more carbon
    // than the eviction-free run.
    const SimulationResult wide_q15 =
        run_spot(24 * kSecondsPerHour, 0.15);
    const SimulationResult wide_q0 =
        run_spot(24 * kSecondsPerHour, 0.0);
    EXPECT_GT(wide_q15.carbon_kg, wide_q0.carbon_kg);
    EXPECT_GT(wide_q15.eviction_count, 0u);
    EXPECT_GT(wide_q15.totalCost(), wide_q0.totalCost());
}

TEST_F(WeekScenario, WaitingSweepShowsDiminishingReturns)
{
    // §6.4.2 (Figure 14): savings-per-waiting-hour falls as the
    // long-queue waiting limit is extended.
    const SimulationResult nowait = run("NoWait");
    std::vector<double> ratios;
    for (Seconds w : {hours(3), hours(24), hours(72)}) {
        const QueueConfig queues =
            calibratedQueues(trace_, hours(6), w);
        const SimulationResult r = testutil::runSim(
            trace_, *makePolicy("Lowest-Window"), queues, cis_);
        const double saved = nowait.carbon_kg - r.carbon_kg;
        ratios.push_back(saved / r.meanWaitingHours());
        EXPECT_GT(ratios.back(), 0.0);
    }
    // The trend is what the paper claims: waiting 24x longer buys
    // far less than 24x the savings, so the per-hour yield drops
    // from the first point to the last (adjacent points can jitter
    // with trace noise).
    EXPECT_LT(ratios.back(), ratios.front());
}

} // namespace
} // namespace gaia
