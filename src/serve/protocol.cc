#include "serve/protocol.h"

#include <cmath>
#include <utility>

#include "core/run_record.h"

namespace streamcover {
namespace {

/// Strict typed field readers: absent is fine (default kept), present
/// with the wrong type is a hard parse error — network input never
/// silently coerces.
bool ReadString(const JsonValue& obj, const char* key, std::string* out,
                std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) {
    *error = std::string("field '") + key + "' must be a string";
    return false;
  }
  *out = v->AsString();
  return true;
}

bool ReadBool(const JsonValue& obj, const char* key, bool* out,
              std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) {
    *error = std::string("field '") + key + "' must be a boolean";
    return false;
  }
  *out = v->AsBool();
  return true;
}

bool ReadDouble(const JsonValue& obj, const char* key, double* out,
                std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    *error = std::string("field '") + key + "' must be a number";
    return false;
  }
  *out = v->AsDouble();
  return true;
}

bool ReadInt64(const JsonValue& obj, const char* key, int64_t* out,
               std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number() ||
      v->AsDouble() != std::floor(v->AsDouble())) {
    *error = std::string("field '") + key + "' must be an integer";
    return false;
  }
  *out = v->AsInt64();
  return true;
}

}  // namespace

bool ParseServeRequest(const std::string& line, ServeRequest* request,
                       std::string* error) {
  std::string parse_error;
  std::optional<JsonValue> doc = JsonValue::Parse(line, &parse_error);
  if (!doc.has_value()) {
    *error = "malformed JSON: " + parse_error;
    return false;
  }
  if (!doc->is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  ServeRequest req;
  if (!ReadString(*doc, "op", &req.op, error) ||
      !ReadString(*doc, "id", &req.id, error) ||
      !ReadString(*doc, "instance", &req.instance, error) ||
      !ReadString(*doc, "solver", &req.solver, error) ||
      !ReadBool(*doc, "include_cover", &req.include_cover, error) ||
      !ReadInt64(*doc, "sleep_ms", &req.sleep_ms, error) ||
      !ReadDouble(*doc, "delta", &req.delta, error) ||
      !ReadDouble(*doc, "coverage_fraction", &req.coverage_fraction,
                  error)) {
    return false;
  }
  int64_t seed = static_cast<int64_t>(req.seed);
  if (!ReadInt64(*doc, "seed", &seed, error)) return false;
  req.seed = static_cast<uint64_t>(seed);
  int64_t threads = req.threads;
  if (!ReadInt64(*doc, "threads", &threads, error)) return false;
  if (threads < 0 || threads > 256) {
    *error = "field 'threads' out of range [0, 256]";
    return false;
  }
  req.threads = static_cast<uint32_t>(threads);
  int64_t scan_threads = req.scan_threads;
  if (!ReadInt64(*doc, "scan_threads", &scan_threads, error)) return false;
  if (scan_threads <= 0 || scan_threads > 256) {
    *error = "field 'scan_threads' out of range [1, 256]";
    return false;
  }
  req.scan_threads = static_cast<uint32_t>(scan_threads);
  int64_t shards = req.shards;
  if (!ReadInt64(*doc, "shards", &shards, error)) return false;
  if (shards <= 0 || shards > 1024) {
    *error = "field 'shards' out of range [1, 1024]";
    return false;
  }
  req.shards = static_cast<uint32_t>(shards);
  if (const JsonValue* v = doc->Find("deadline_ms")) {
    if (!v->is_number() || v->AsDouble() != std::floor(v->AsDouble())) {
      *error = "field 'deadline_ms' must be an integer";
      return false;
    }
    req.deadline_ms = v->AsInt64();
  }
  if (req.op.empty()) {
    *error = "missing required field 'op'";
    return false;
  }
  if (req.op != "solve" && req.op != "sleep" && req.op != "stats" &&
      req.op != "list" && req.op != "ping") {
    *error = "unknown op '" + req.op + "'";
    return false;
  }
  if (req.op == "solve") {
    if (req.instance.empty()) {
      *error = "op 'solve' requires field 'instance'";
      return false;
    }
    if (req.solver.empty()) {
      *error = "op 'solve' requires field 'solver'";
      return false;
    }
  }
  if (req.op == "sleep" && (req.sleep_ms < 0 || req.sleep_ms > 60000)) {
    *error = "field 'sleep_ms' out of range [0, 60000]";
    return false;
  }
  *request = std::move(req);
  return true;
}

JsonValue ErrorResponse(const std::string& id, const std::string& code,
                        const std::string& message) {
  JsonValue response = JsonValue::Object();
  if (!id.empty()) response.Set("id", id);
  response.Set("ok", false);
  JsonValue err = JsonValue::Object();
  err.Set("code", code);
  err.Set("message", message);
  response.Set("error", std::move(err));
  return response;
}

JsonValue SolveResponse(const ServeRequest& request,
                        const RunResult& result) {
  JsonValue response = OkResponse(request.id);
  const JsonValue record = RunResultJson(result, request.include_cover);
  for (const auto& [key, value] : record.members()) response.Set(key, value);
  return response;
}

JsonValue OkResponse(const std::string& id) {
  JsonValue response = JsonValue::Object();
  if (!id.empty()) response.Set("id", id);
  response.Set("ok", true);
  return response;
}

}  // namespace streamcover
