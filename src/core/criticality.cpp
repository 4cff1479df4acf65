#include "core/criticality.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/stats.h"
#include "util/thread_pool.h"

namespace dtr {

std::string to_string(SamplingMode m) {
  switch (m) {
    case SamplingMode::kEmulatedWeights: return "emulated-weights";
    case SamplingMode::kExactFailure: return "exact-failure";
  }
  return "?";
}

CriticalityCollector::CriticalityCollector(std::size_t num_links, int wmax, double b1,
                                           const CriticalityParams& params,
                                           std::uint64_t seed)
    : params_(params),
      emulation_floor_(static_cast<int>(std::ceil(params.q * wmax))),
      b1_(b1),
      num_links_(num_links),
      lambda_samples_(num_links),
      phi_samples_(num_links),
      offered_(num_links, 0),
      lambda_tracker_(params.convergence_threshold),
      phi_tracker_(params.convergence_threshold),
      rng_(seed) {
  if (num_links == 0) throw std::invalid_argument("CriticalityCollector: no links");
  if (params.q <= 0.0 || params.q >= 1.0)
    throw std::invalid_argument("CriticalityCollector: q must be in (0,1)");
  if (params.tau < 1) throw std::invalid_argument("CriticalityCollector: tau must be >= 1");
  next_rank_update_at_ = static_cast<std::size_t>(params.tau) * num_links_;
}

bool CriticalityCollector::cost_acceptable(const CostPair& cost,
                                           const CostPair& best) const {
  return cost.lambda <= best.lambda + params_.z * b1_ + 1e-9 &&
         cost.phi <= (1.0 + params_.chi) * best.phi + 1e-9;
}

bool CriticalityCollector::should_sample(const PerturbationEvent& event) const {
  if (!event.cost_after.has_value()) return false;
  if (event.new_weight_delay < emulation_floor_ || event.new_weight_tput < emulation_floor_)
    return false;  // not failure-like: the link must look down for BOTH classes
  return cost_acceptable(event.cost_before, event.global_best);
}

void CriticalityCollector::on_perturbation(const PerturbationEvent& event) {
  if (!should_sample(event)) return;
  add_sample(event.link, *event.cost_after);
}

void CriticalityCollector::add_sample(LinkId link, const CostPair& cost) {
  if (link >= num_links_) throw std::out_of_range("CriticalityCollector::add_sample");
  auto& lambda = lambda_samples_[link];
  auto& phi = phi_samples_[link];
  ++offered_[link];
  if (lambda.size() < params_.max_samples_per_link) {
    lambda.push_back(cost.lambda);
    phi.push_back(cost.phi);
  } else {
    // Reservoir replacement keeps an unbiased subsample per link.
    const std::uint64_t slot = rng_.uniform_index(offered_[link]);
    if (slot < lambda.size()) {
      lambda[slot] = cost.lambda;
      phi[slot] = cost.phi;
    }
  }
  ++total_samples_;
  maybe_update_ranks();
}

void CriticalityCollector::maybe_update_ranks() {
  if (total_samples_ < next_rank_update_at_) return;
  next_rank_update_at_ += static_cast<std::size_t>(params_.tau) * num_links_;
  const CriticalityEstimates est = estimates();
  lambda_tracker_.update(est.rho_lambda);
  phi_tracker_.update(est.rho_phi);
}

std::size_t CriticalityCollector::sample_count(LinkId link) const {
  return lambda_samples_.at(link).size();
}

std::vector<LinkId> CriticalityCollector::links_by_sample_need() const {
  std::vector<LinkId> order(num_links_);
  std::iota(order.begin(), order.end(), LinkId{0});
  std::sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
    if (lambda_samples_[a].size() != lambda_samples_[b].size())
      return lambda_samples_[a].size() < lambda_samples_[b].size();
    return a < b;
  });
  return order;
}

std::span<const double> CriticalityCollector::lambda_samples(LinkId link) const {
  return lambda_samples_.at(link);
}

std::span<const double> CriticalityCollector::phi_samples(LinkId link) const {
  return phi_samples_.at(link);
}

CriticalityEstimates CriticalityCollector::estimates() const {
  CriticalityEstimates est;
  est.rho_lambda.resize(num_links_);
  est.rho_phi.resize(num_links_);
  est.mean_lambda.resize(num_links_);
  est.mean_phi.resize(num_links_);
  est.tail_lambda.resize(num_links_);
  est.tail_phi.resize(num_links_);
  for (LinkId l = 0; l < num_links_; ++l) {
    est.mean_lambda[l] = mean(lambda_samples_[l]);
    est.mean_phi[l] = mean(phi_samples_[l]);
    est.tail_lambda[l] = left_tail_mean(lambda_samples_[l], params_.left_tail_fraction);
    est.tail_phi[l] = left_tail_mean(phi_samples_[l], params_.left_tail_fraction);
    est.rho_lambda[l] = est.mean_lambda[l] - est.tail_lambda[l];
    est.rho_phi[l] = est.mean_phi[l] - est.tail_phi[l];
  }
  return est;
}

bool CriticalityCollector::converged() const {
  return lambda_tracker_.converged() && phi_tracker_.converged();
}

std::size_t CriticalityCollector::samples_until_next_rank_update() const {
  return next_rank_update_at_ > total_samples_ ? next_rank_update_at_ - total_samples_
                                               : 1;
}

TopUpCounts top_up_criticality_samples(const Evaluator& evaluator,
                                       CriticalityCollector& collector,
                                       std::span<const FailureScenario> scenarios,
                                       std::span<const AcceptableStore::Entry* const> entries,
                                       SamplingMode mode, int wmax, long budget, Rng& rng,
                                       ThreadPool* pool) {
  if (scenarios.size() != collector.num_links())
    throw std::invalid_argument(
        "top_up_criticality_samples: catalog size differs from the collector's");
  if (entries.empty())
    throw std::invalid_argument("top_up_criticality_samples: empty entry pool");
  const bool emulated = mode == SamplingMode::kEmulatedWeights;
  if (emulated)
    for (const FailureScenario& s : scenarios)
      if (s.kind != FailureScenario::Kind::kLink)
        throw std::invalid_argument(
            "top_up_criticality_samples: emulated-weights sampling needs single-link scenarios");

  TopUpCounts counts;
  const int floor = collector.emulation_weight_floor();
  // Emulated mode evaluates a perturbed copy of the drawn setting under
  // normal conditions; exact mode evaluates the drawn setting under the
  // scenario itself.
  std::vector<WeightSetting> perturbed;
  std::vector<EvalJob> jobs;
  // Exact mode: a sample is a pure function of (pool entry, catalog
  // position), and a pool of a few entries repeats pairs often, so each pair
  // is evaluated once per call. Keyed entry * |catalog| + position.
  std::unordered_map<std::size_t, CostPair> memo;
  std::vector<std::size_t> draw_key;
  std::vector<std::size_t> job_key;

  while (!collector.converged() && counts.drawn < budget) {
    const std::vector<LinkId> order = collector.links_by_sample_need();
    std::size_t pos = 0;
    while (pos < order.size()) {
      if (collector.converged() || counts.drawn >= budget) break;

      // Batch at most up to the next rank refresh: convergence cannot change
      // mid-batch, so drawing/evaluating these jobs ahead of time replays the
      // sequential loop exactly.
      const std::size_t batch =
          std::min({order.size() - pos, static_cast<std::size_t>(budget - counts.drawn),
                    collector.samples_until_next_rank_update()});
      perturbed.clear();
      jobs.clear();
      draw_key.clear();
      job_key.clear();
      for (std::size_t i = 0; i < batch; ++i) {
        const FailureScenario& scenario = scenarios[order[pos + i]];
        const std::size_t e = rng.uniform_index(entries.size());
        const AcceptableStore::Entry& entry = *entries[e];
        if (emulated) {
          WeightSetting w = entry.setting;
          w.set(TrafficClass::kDelay, scenario.id, rng.uniform_int(floor, wmax));
          w.set(TrafficClass::kThroughput, scenario.id, rng.uniform_int(floor, wmax));
          perturbed.push_back(std::move(w));
        } else {
          const std::size_t key = e * scenarios.size() + order[pos + i];
          draw_key.push_back(key);
          if (memo.try_emplace(key).second) {
            jobs.push_back({&entry.setting, scenario});
            job_key.push_back(key);
          }
        }
      }
      for (const WeightSetting& w : perturbed) jobs.push_back({&w, FailureScenario::none()});

      const std::vector<CostPair> costs =
          jobs.empty() ? std::vector<CostPair>{} : evaluator.evaluate_costs(jobs, pool);
      counts.evaluated += static_cast<long>(jobs.size());
      for (std::size_t j = 0; j < job_key.size(); ++j) memo[job_key[j]] = costs[j];
      for (std::size_t i = 0; i < batch; ++i) {
        collector.add_sample(order[pos + i], emulated ? costs[i] : memo.at(draw_key[i]));
        ++counts.drawn;
      }
      pos += batch;
    }
  }
  return counts;
}

}  // namespace dtr
