#include "obs/flight_recorder.h"

#include <cstring>

#include "common/json_util.h"
#include "metrics/printer.h"

namespace caqe {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : mask_(RoundUpPow2(capacity < 2 ? 2 : capacity) - 1),
      slots_(mask_ + 1) {}

void FlightRecorder::Record(FlightEntry entry) {
  const uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];
  slot.stamp.store(0, std::memory_order_release);
  slot.words[0].store(reinterpret_cast<uintptr_t>(entry.name),
                      std::memory_order_relaxed);
  slot.words[1].store(
      static_cast<uint64_t>(static_cast<uint32_t>(entry.request_id)) |
          (static_cast<uint64_t>(static_cast<uint32_t>(entry.region)) << 32),
      std::memory_order_relaxed);
  slot.words[2].store(static_cast<uint64_t>(entry.kind),
                      std::memory_order_relaxed);
  slot.words[3].store(DoubleBits(entry.vtime), std::memory_order_relaxed);
  slot.words[4].store(DoubleBits(entry.wall_us), std::memory_order_relaxed);
  slot.words[5].store(static_cast<uint64_t>(entry.value),
                      std::memory_order_relaxed);
  slot.stamp.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEntry> FlightRecorder::Dump() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t capacity = mask_ + 1;
  const uint64_t begin = head > capacity ? head - capacity : 0;
  std::vector<FlightEntry> out;
  out.reserve(static_cast<size_t>(head - begin));
  for (uint64_t seq = begin; seq < head; ++seq) {
    const Slot& slot = slots_[seq & mask_];
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1) continue;
    uint64_t words[kWords];
    for (int w = 0; w < kWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_acquire);
    }
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1) continue;
    FlightEntry entry;
    entry.seq = seq;
    entry.name = reinterpret_cast<const char*>(
        static_cast<uintptr_t>(words[0]));
    entry.request_id = static_cast<int32_t>(words[1] & 0xffffffffu);
    entry.region = static_cast<int32_t>(words[1] >> 32);
    entry.kind = static_cast<char>(words[2]);
    entry.vtime = BitsDouble(words[3]);
    entry.wall_us = BitsDouble(words[4]);
    entry.value = static_cast<int64_t>(words[5]);
    if (entry.name == nullptr) entry.name = "";
    out.push_back(entry);
  }
  return out;
}

std::string FlightRecorder::Jsonl() const {
  std::string out;
  for (const FlightEntry& entry : Dump()) {
    out += "{\"seq\":" + std::to_string(entry.seq);
    out += ",\"kind\":";
    out += entry.kind == 's' ? "\"span\"" : "\"audit\"";
    out += ",\"name\":";
    JsonAppendString(out, entry.name);
    out += ",\"req\":" + std::to_string(entry.request_id);
    out += ",\"region\":" + std::to_string(entry.region);
    out += ",\"vtime\":" + FormatDouble(entry.vtime, 3);
    out += ",\"value\":" + std::to_string(entry.value);
    out += ",\"wall_us\":" + FormatDouble(entry.wall_us, 3);
    out += "}\n";
  }
  return out;
}

}  // namespace caqe
