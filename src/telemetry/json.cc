#include "telemetry/json.h"

#include <cmath>
#include <cstdio>

#include "common/str_util.h"

namespace dar {
namespace telemetry {

void JsonWriter::MaybeComma() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
}

void JsonWriter::EndObject() {
  out_ += '}';
  need_comma_ = true;
}

void JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
}

void JsonWriter::EndArray() {
  out_ += ']';
  need_comma_ = true;
}

void JsonWriter::Key(const std::string& name) {
  MaybeComma();
  out_ += '"';
  out_ += Escape(name);
  out_ += "\":";
}

void JsonWriter::String(const std::string& value) {
  MaybeComma();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
  need_comma_ = true;
}

void JsonWriter::Int(int64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  need_comma_ = true;
}

void JsonWriter::Double(double value) {
  MaybeComma();
  out_ += FormatDouble(value);
  need_comma_ = true;
}

void JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  need_comma_ = true;
}

void JsonWriter::Raw(const std::string& json) {
  MaybeComma();
  out_ += json;
  need_comma_ = true;
}

std::string JsonWriter::FormatDouble(double value) {
  // Bare "1e+30"-style output is valid JSON, and so is "1" for 1.0.
  return std::isfinite(value) ? FormatDoubleExact(value) : "null";
}

std::string JsonWriter::Escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonExporter::Export(const Snapshot& snapshot) const {
  JsonWriter w;
  w.BeginObject();

  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, counter] : snapshot.counters) {
    if (!options_.include_timings && counter.unit == Unit::kSeconds) continue;
    w.Key(name);
    w.BeginObject();
    w.Key("unit");
    w.String(UnitName(counter.unit));
    w.Key("value");
    w.Int(counter.value);
    w.EndObject();
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, gauge] : snapshot.gauges) {
    if (!options_.include_timings && gauge.unit == Unit::kSeconds) continue;
    w.Key(name);
    w.BeginObject();
    w.Key("unit");
    w.String(UnitName(gauge.unit));
    w.Key("value");
    w.Double(gauge.value);
    w.EndObject();
  }
  w.EndObject();

  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, hist] : snapshot.histograms) {
    if (!options_.include_timings && hist.unit == Unit::kSeconds) continue;
    w.Key(name);
    w.BeginObject();
    w.Key("unit");
    w.String(UnitName(hist.unit));
    w.Key("bounds");
    w.BeginArray();
    for (const double b : hist.bounds) w.Double(b);
    w.EndArray();
    w.Key("counts");
    w.BeginArray();
    for (const int64_t c : hist.counts) w.Int(c);
    w.EndArray();
    w.Key("count");
    w.Int(hist.count);
    w.Key("sum");
    w.Double(hist.sum);
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  return std::move(w).TakeStr();
}

}  // namespace telemetry
}  // namespace dar
