#include "core/local_search.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace dtr {

LocalSearch::LocalSearch(Config config) : config_(config) {
  if (config_.wmax < 2) throw std::invalid_argument("LocalSearch: wmax must be >= 2");
  if (config_.phase.diversification_interval < 1 || config_.phase.stall_diversifications < 1)
    throw std::invalid_argument("LocalSearch: phase parameters must be >= 1");
}

void LocalSearch::set_observer(std::function<void(const PerturbationEvent&)> observer) {
  observer_ = std::move(observer);
}

void LocalSearch::set_on_accept(
    std::function<void(const WeightSetting&, const CostPair&)> on_accept) {
  on_accept_ = std::move(on_accept);
}

void LocalSearch::set_on_move(std::function<void(const MoveRecord&)> on_move) {
  on_move_ = std::move(on_move);
}

LocalSearch::Result LocalSearch::run(SearchObjective& objective,
                                     const WeightSetting& initial) {
  Rng rng(config_.seed);
  const LexicographicOrder order;
  const std::size_t num_links = initial.num_links();
  if (num_links == 0) throw std::invalid_argument("LocalSearch: empty weight setting");

  auto initial_cost = objective.evaluate(initial, nullptr);
  if (!initial_cost.has_value())
    throw std::invalid_argument("LocalSearch: initial setting is infeasible");

  Result result;
  result.best = initial;
  result.best_cost = *initial_cost;
  result.evaluations = 1;

  WeightSetting current = initial;
  CostPair current_cost = *initial_cost;
  objective.adopt(current);

  const int max_divs = config_.phase.max_diversifications > 0
                           ? config_.phase.max_diversifications
                           : 4 * config_.phase.stall_diversifications;

  std::vector<LinkId> visit_order(num_links);
  std::iota(visit_order.begin(), visit_order.end(), LinkId{0});

  const long max_iterations =
      config_.phase.max_iterations > 0
          ? config_.phase.max_iterations
          : 20L * config_.phase.diversification_interval * max_divs;

  int stalled_divs = 0;      // consecutive diversifications below the c% bar
  int completed_divs = 0;
  int idle_iterations = 0;   // iterations since the global best last improved
  CostPair best_at_div_start = result.best_cost;

  // Speculative screening state: up to `speculation` probes are screened
  // concurrently under the assumption that none is accepted; an accept
  // invalidates (and re-screens) the batch tail. All buffers are reused
  // across batches so the hot loop stays allocation-free.
  const std::size_t speculation = ThreadPool::workers_of(config_.pool);
  std::vector<int> probe_delay(num_links);
  std::vector<int> probe_tput(num_links);
  std::vector<std::size_t> evaluable;
  evaluable.reserve(num_links);
  std::vector<WeightSetting> candidates(speculation);
  std::vector<SearchObjective::Screening> screenings(speculation);

  while (stalled_divs < config_.phase.stall_diversifications &&
         completed_divs < max_divs && result.iterations < max_iterations) {
    ++result.iterations;
    std::shuffle(visit_order.begin(), visit_order.end(), rng.engine());
    const CostPair best_at_iteration_start = result.best_cost;

    // Pre-draw both weights for every link in visit order. The sequential
    // loop draws them per link regardless of acceptance, so this consumes
    // the RNG stream identically.
    for (std::size_t p = 0; p < num_links; ++p) {
      probe_delay[p] = rng.uniform_int(1, config_.wmax);
      probe_tput[p] = rng.uniform_int(1, config_.wmax);
    }

    // Positions whose probe actually changes the setting. Each link is
    // visited once per iteration and rejected probes are restored, so a
    // probe's no-op status cannot change mid-iteration.
    evaluable.clear();
    for (std::size_t p = 0; p < num_links; ++p) {
      const LinkId link = visit_order[p];
      if (probe_delay[p] != current.get(TrafficClass::kDelay, link) ||
          probe_tput[p] != current.get(TrafficClass::kThroughput, link))
        evaluable.push_back(p);
    }

    std::size_t next = 0;
    while (next < evaluable.size()) {
      const std::size_t batch = std::min(speculation, evaluable.size() - next);
      for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t p = evaluable[next + i];
        candidates[i] = current;
        candidates[i].set(TrafficClass::kDelay, visit_order[p], probe_delay[p]);
        candidates[i].set(TrafficClass::kThroughput, visit_order[p], probe_tput[p]);
      }
      parallel_for(config_.pool, batch,
                   [&](std::size_t i) { screenings[i] = objective.screen(candidates[i]); });

      // Commit in probe order, finishing deferred probes on this thread;
      // stop at the first accept — later speculative screenings saw a stale
      // setting and are redone in the next batch.
      std::size_t consumed = batch;
      for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t p = evaluable[next + i];
        const LinkId link = visit_order[p];
        const int old_delay = current.get(TrafficClass::kDelay, link);
        const int old_tput = current.get(TrafficClass::kThroughput, link);
        current.set(TrafficClass::kDelay, link, probe_delay[p]);
        current.set(TrafficClass::kThroughput, link, probe_tput[p]);
        const std::optional<CostPair> candidate_cost =
            screenings[i].deferred ? objective.finish(candidates[i], &current_cost)
                                   : screenings[i].cost;
        ++result.evaluations;

        const bool accepted =
            candidate_cost.has_value() && order.less(*candidate_cost, current_cost);

        if (observer_) {
          observer_({link, probe_delay[p], probe_tput[p], current_cost, result.best_cost,
                     candidate_cost, accepted, &current, old_delay, old_tput});
        }

        if (accepted) {
          current_cost = *candidate_cost;
          ++result.accepted_moves;
          if (on_accept_) on_accept_(current, current_cost);
          if (on_move_)
            on_move_({result.iterations, result.evaluations, link, current_cost, false});
          if (order.less(current_cost, result.best_cost)) {
            result.best = current;
            result.best_cost = current_cost;
          }
          consumed = i + 1;
          break;
        }
        current.set(TrafficClass::kDelay, link, old_delay);
        current.set(TrafficClass::kThroughput, link, old_tput);
      }
      next += consumed;
    }

    // Only MEANINGFUL global-best progress (the c% criterion) resets the
    // clock: trajectories trickling in marginal accepts without real progress
    // still diversify ("the cost is not improved after a certain number of
    // iterations", Sec. IV-A). This also bounds the slow tail of descent.
    const bool meaningful_iteration = order.improves_by_fraction(
        result.best_cost, best_at_iteration_start, config_.phase.improvement_threshold);
    idle_iterations = meaningful_iteration ? 0 : idle_iterations + 1;
    if (idle_iterations < config_.phase.diversification_interval &&
        result.iterations < max_iterations)
      continue;

    // Diversification: score the round just finished, then restart.
    ++completed_divs;
    ++result.diversifications;
    const bool meaningful_improvement = order.improves_by_fraction(
        result.best_cost, best_at_div_start, config_.phase.improvement_threshold);
    stalled_divs = meaningful_improvement ? 0 : stalled_divs + 1;
    best_at_div_start = result.best_cost;
    idle_iterations = 0;

    if (stalled_divs >= config_.phase.stall_diversifications || completed_divs >= max_divs ||
        result.iterations >= max_iterations)
      break;

    // Restart from one uniformly random setting. A constrained objective
    // (Phase 2) may reject it; the search then resumes from the best.
    WeightSetting fresh(num_links);
    randomize_weights(fresh, config_.wmax, rng);
    const auto fresh_cost = objective.evaluate(fresh, nullptr);
    ++result.evaluations;
    const bool restarted = fresh_cost.has_value();
    current = restarted ? std::move(fresh) : result.best;
    current_cost = restarted ? *fresh_cost : result.best_cost;
    objective.adopt(current);
    if (!restarted) continue;
    if (on_accept_) on_accept_(current, current_cost);
    if (on_move_)
      on_move_({result.iterations, result.evaluations, kInvalidLink, current_cost, true});
    if (order.less(current_cost, result.best_cost)) {
      result.best = current;
      result.best_cost = current_cost;
    }
  }
  return result;
}

}  // namespace dtr
