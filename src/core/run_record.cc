#include "core/run_record.h"

#include <utility>

namespace streamcover {

JsonValue RunResultJson(const RunResult& result, bool include_cover) {
  JsonValue record = JsonValue::Object();
  record.Set("solver", result.solver);
  record.Set("instance", result.instance);
  record.Set("success", result.success);
  record.Set("cover_size", static_cast<uint64_t>(result.cover.size()));
  record.Set("passes", result.passes);
  record.Set("sequential_scans", result.sequential_scans);
  record.Set("physical_scans", result.physical_scans);
  record.Set("space_words", result.space_words);
  record.Set("projection_words_peak", result.projection_words_peak);
  record.Set("gain_updates", result.gain_updates);
  record.Set("sets_touched", result.sets_touched);
  record.Set("duration_ms", result.duration_ms);
  if (!result.shard_stats.empty()) {
    JsonValue shards = JsonValue::Array();
    for (const ShardStat& stat : result.shard_stats) {
      JsonValue row = JsonValue::Object();
      row.Set("shard", static_cast<uint64_t>(stat.shard));
      row.Set("sets_seen", stat.sets_seen);
      row.Set("candidates", stat.candidates);
      row.Set("inserts", stat.inserts);
      row.Set("work_items", stat.work_items);
      shards.Append(std::move(row));
    }
    record.Set("shards", std::move(shards));
    JsonValue merge = JsonValue::Object();
    merge.Set("candidates", result.merge_stats.candidates);
    merge.Set("duplicates_dropped", result.merge_stats.duplicates_dropped);
    merge.Set("picked", result.merge_stats.picked);
    merge.Set("duration_ms", result.merge_stats.duration_ms);
    record.Set("merge", std::move(merge));
  }
  if (include_cover) {
    JsonValue ids = JsonValue::Array();
    for (uint32_t id : result.cover.set_ids) {
      ids.Append(static_cast<uint64_t>(id));
    }
    record.Set("cover", std::move(ids));
  }
  return record;
}

std::string RunRecordLine(const JsonValue& record) {
  std::string line;
  for (const auto& [key, value] : record.members()) {
    if (key == "instance" || key == "duration_ms" || value.is_array() ||
        value.is_object()) {
      continue;
    }
    if (!line.empty()) line += ' ';
    line += key + '=' + (value.is_string() ? value.AsString() : value.Dump(0));
  }
  return line;
}

}  // namespace streamcover
