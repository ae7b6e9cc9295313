#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "floorplan/floorplan.h"
#include "floorplan/grid.h"
#include "numerics/stats.h"
#include "thermal/rc_model.h"

namespace {

using namespace eigenmaps;

class ThermalTest : public ::testing::Test {
 protected:
  ThermalTest()
      : plan_(floorplan::make_niagara_t1()),
        grid_(plan_, 20, 18),
        model_(grid_) {}

  floorplan::Floorplan plan_;
  floorplan::ThermalGrid grid_;
  thermal::RcModel model_;
};

TEST_F(ThermalTest, SteadyStateIsAboveAmbientAndBounded) {
  const numerics::Vector power(plan_.block_count(), 2.0);
  const numerics::Vector temps = model_.steady_state(power);
  for (const double t : temps) {
    EXPECT_GT(t, model_.ambient());
    EXPECT_LT(t, model_.ambient() + 200.0);
  }
}

TEST_F(ThermalTest, SteadyStateBalancesEnergy) {
  // In equilibrium the heat leaving through the package equals the power
  // injected: sum_i g_v * (T_i - ambient) == sum_b P_b.
  const numerics::Vector power(plan_.block_count(), 1.5);
  const numerics::Vector temps = model_.steady_state(power);
  numerics::Vector delta(temps.size());
  for (std::size_t i = 0; i < temps.size(); ++i) {
    delta[i] = temps[i] - model_.ambient();
  }
  // G * delta sums to the total vertical outflow (lateral terms cancel).
  const numerics::Vector flow = model_.conductance().multiply(delta);
  const double total_in = 1.5 * static_cast<double>(plan_.block_count());
  EXPECT_NEAR(numerics::sum(flow), total_in, total_in * 1e-6);
}

TEST_F(ThermalTest, HotBlockIsLocallyHottest) {
  numerics::Vector power(plan_.block_count(), 0.1);
  // Find a core block and crank it.
  std::size_t hot_block = 0;
  for (std::size_t b = 0; b < plan_.block_count(); ++b) {
    if (plan_.block(b).type == floorplan::BlockType::kCore) {
      hot_block = b;
      break;
    }
  }
  power[hot_block] = 8.0;
  const numerics::Vector temps = model_.steady_state(power);
  std::size_t hottest = 0;
  for (std::size_t i = 0; i < temps.size(); ++i) {
    if (temps[i] > temps[hottest]) hottest = i;
  }
  EXPECT_EQ(grid_.block_of_index(hottest), hot_block);
}

TEST_F(ThermalTest, TransientConvergesToSteadyState) {
  const numerics::Vector power(plan_.block_count(), 2.0);
  const numerics::Vector target = model_.steady_state(power);
  // Start from ambient and march; after many time constants we must land
  // on the steady solution.
  numerics::Vector state(grid_.cell_count(), model_.ambient());
  for (int i = 0; i < 3000; ++i) {
    state = model_.step(state, power, 5e-3);
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_NEAR(state[i], target[i], 1e-3);
  }
}

TEST_F(ThermalTest, StepMovesTowardTheNewEquilibrium) {
  const numerics::Vector low(plan_.block_count(), 0.5);
  const numerics::Vector high(plan_.block_count(), 3.0);
  numerics::Vector state = model_.steady_state(low);
  const numerics::Vector before = state;
  state = model_.step(state, high, 1e-3);
  // One step with more power: every cell warms, none overshoots wildly.
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_GT(state[i], before[i]);
    EXPECT_LT(state[i], before[i] + 50.0);
  }
}

TEST_F(ThermalTest, StepRejectsNonFiniteDt) {
  const numerics::Vector power(plan_.block_count(), 2.0);
  const numerics::Vector state = model_.steady_state(power);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double dt : {std::nan(""), inf, -inf, 0.0, -1e-3}) {
    EXPECT_THROW(model_.step(state, power, dt), std::invalid_argument) << dt;
    EXPECT_THROW(model_.step_system(dt), std::invalid_argument) << dt;
  }
}

TEST_F(ThermalTest, SharedModelStepsBitIdenticallyFromFourThreads) {
  // Each trace alternates two step lengths of its own, so a per-dt cache
  // inside the shared model would be rebuilt under the other threads' feet.
  const thermal::RcModel& shared = model_;
  const auto trace = [&](std::size_t k) {
    numerics::Vector power(plan_.block_count(), 0.5 + 0.5 * k);
    numerics::Vector state = shared.steady_state(power);
    const double dt = 1e-3 * static_cast<double>(k + 1);
    for (std::size_t i = 0; i < 100; ++i) {
      power[i % power.size()] += 0.25;
      state = shared.step(state, power, i % 2 == 0 ? dt : 0.5 * dt);
    }
    return state;
  };
  constexpr std::size_t kThreads = 4;
  std::vector<numerics::Vector> serial(kThreads), threaded(kThreads);
  for (std::size_t k = 0; k < kThreads; ++k) serial[k] = trace(k);
  std::vector<std::thread> pool;
  for (std::size_t k = 0; k < kThreads; ++k) {
    pool.emplace_back([&, k] { threaded[k] = trace(k); });
  }
  for (std::thread& th : pool) th.join();
  for (std::size_t k = 0; k < kThreads; ++k) {
    ASSERT_EQ(threaded[k].size(), serial[k].size());
    EXPECT_EQ(std::memcmp(threaded[k].data(), serial[k].data(),
                          serial[k].size() * sizeof(double)),
              0)
        << "thread " << k;
  }
}

}  // namespace
