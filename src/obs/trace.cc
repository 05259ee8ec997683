#include "obs/trace.h"

namespace pase::obs {

#if PASE_OBS_ENABLED
namespace detail {
constinit thread_local TraceBuffer* tls_buffer = nullptr;
}
#endif

TraceBuffer::TraceBuffer(std::size_t capacity, std::uint32_t categories)
    : categories_(categories) {
  std::size_t cap = 1;
  while (cap < capacity) cap <<= 1;
  ring_.resize(cap);
  mask_ = cap - 1;
}

std::uint32_t category_of(EventType type) {
  switch (type) {
    case EventType::kFlowStart:
    case EventType::kFlowFirstByte:
    case EventType::kFlowComplete:
    case EventType::kFlowDeadlineMiss:
      return kFlowCat;
    case EventType::kPktDrop:
    case EventType::kPktEcnMark:
      return kPacketCat;
    case EventType::kArbDecision:
      return kArbCat;
    case EventType::kCwndSample:
    case EventType::kAlphaSample:
    case EventType::kRateSample:
      return kEndpointCat;
    case EventType::kQueueSample:
      return kQueueCat;
    case EventType::kEngineSample:
    case EventType::kParallelRound:
      return kEngineCat;
  }
  return 0;
}

const char* type_name(EventType type) {
  switch (type) {
    case EventType::kFlowStart: return "flow.start";
    case EventType::kFlowFirstByte: return "flow.first_byte";
    case EventType::kFlowComplete: return "flow.complete";
    case EventType::kFlowDeadlineMiss: return "flow.deadline_miss";
    case EventType::kPktDrop: return "pkt.drop";
    case EventType::kPktEcnMark: return "pkt.ecn_mark";
    case EventType::kArbDecision: return "arb.decision";
    case EventType::kCwndSample: return "ep.cwnd";
    case EventType::kAlphaSample: return "ep.alpha";
    case EventType::kRateSample: return "ep.rate";
    case EventType::kQueueSample: return "queue.sample";
    case EventType::kEngineSample: return "engine.sample";
    case EventType::kParallelRound: return "engine.round";
  }
  return "unknown";
}

namespace {

struct CategoryName {
  const char* name;
  std::uint32_t bit;
};

constexpr CategoryName kCategoryNames[] = {
    {"flow", kFlowCat},   {"packet", kPacketCat}, {"arb", kArbCat},
    {"endpoint", kEndpointCat}, {"queue", kQueueCat}, {"engine", kEngineCat},
};

}  // namespace

std::uint32_t parse_categories(const std::string& spec) {
  if (spec.empty() || spec == "all") return kAllCategories;
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(
        pos, comma == std::string::npos ? comma : comma - pos);
    if (tok == "all") mask |= kAllCategories;
    for (const CategoryName& c : kCategoryNames) {
      if (tok == c.name) mask |= c.bit;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return mask;
}

std::string categories_string(std::uint32_t mask) {
  std::string out;
  for (const CategoryName& c : kCategoryNames) {
    if ((mask & c.bit) == 0) continue;
    if (!out.empty()) out += ',';
    out += c.name;
  }
  return out;
}

}  // namespace pase::obs
