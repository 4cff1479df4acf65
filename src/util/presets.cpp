#include "util/presets.h"

#include <cstdlib>
#include <string>

namespace dtr {

namespace {
const char* getenv_or_null(const char* name) { return std::getenv(name); }
}  // namespace

Effort effort_from_env(Effort fallback) {
  const char* raw = getenv_or_null("DTR_EFFORT");
  if (raw == nullptr) return fallback;
  return parse_effort(raw).value_or(fallback);
}

int repeats_from_env(int fallback) {
  const char* raw = getenv_or_null("DTR_REPEATS");
  if (raw == nullptr) return fallback;
  const int v = std::atoi(raw);
  return v > 0 ? v : fallback;
}

unsigned long long seed_from_env(unsigned long long fallback) {
  const char* raw = getenv_or_null("DTR_SEED");
  if (raw == nullptr) return fallback;
  const unsigned long long v = std::strtoull(raw, nullptr, 10);
  return v != 0 ? v : fallback;
}

int nodes_from_env(int fallback) {
  const char* raw = getenv_or_null("DTR_NODES");
  if (raw == nullptr) return fallback;
  const int v = std::atoi(raw);
  return v >= 4 ? v : fallback;
}

std::string to_string(Effort e) {
  switch (e) {
    case Effort::kSmoke: return "smoke";
    case Effort::kQuick: return "quick";
    case Effort::kFull: return "full";
  }
  return "quick";
}

std::optional<Effort> parse_effort(std::string_view text) {
  for (const Effort e : {Effort::kSmoke, Effort::kQuick, Effort::kFull})
    if (to_string(e) == text) return e;
  return std::nullopt;
}

}  // namespace dtr
