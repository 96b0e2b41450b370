#include "check.h"

#include <cstdio>

namespace rbench {

namespace {

void AppendDoubles(const std::vector<double>& values, std::string* out) {
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), " %a", v);
    *out += buf;
  }
}

}  // namespace

std::string Instance::Key() const {
  std::string key;
  switch (kind) {
    case Kind::kTopK:
      key = "topk k=" + std::to_string(k) + " w=";
      AppendDoubles(weights, &key);
      break;
    case Kind::kSkyline:
      key = "skyline";
      break;
    case Kind::kSkyband:
      key = "skyband band=" + std::to_string(band);
      break;
    case Kind::kRange:
      key = "range c=";
      AppendDoubles(center, &key);
      AppendDoubles({radius}, &key);
      break;
  }
  return key;
}

const std::vector<uint64_t>& AnswerChecker::Expected(const Instance& in) {
  if (in.kind == Instance::Kind::kSkyline ||
      in.kind == Instance::Kind::kSkyband) {
    auto it = skyband_.find(in.band);
    if (it == skyband_.end()) {
      it = skyband_.emplace(in.band, ref_->Skyband(in.band)).first;
    }
    return it->second;
  }
  const std::string key = in.Key();
  auto it = expected_.find(key);
  if (it == expected_.end()) {
    std::vector<uint64_t> ids = in.kind == Instance::Kind::kTopK
                                    ? ref_->TopK(in.weights, in.k)
                                    : ref_->Range(in.center, in.radius);
    it = expected_.emplace(key, std::move(ids)).first;
  }
  return it->second;
}

std::string AnswerChecker::Check(const Instance& in,
                                 const ripple::TupleVec& answer) {
  const bool ordered = in.kind == Instance::Kind::kTopK;
  std::string err = CompareAnswer(*ref_, answer, Expected(in), ordered);
  if (!err.empty()) return err;
  // Every policy finalizes into a canonical order, so two answers to the
  // same instance must be the same sequence, not just the same set.
  std::vector<uint64_t> ids;
  for (const ripple::Tuple& t : answer) ids.push_back(t.id);
  const auto [it, first] = answered_.emplace(in.Key(), ids);
  if (!first && it->second != ids) {
    return "answer differs from an earlier answer to the same instance";
  }
  return "";
}

void AnswerChecker::Forget() {
  expected_.clear();
  answered_.clear();
}

}  // namespace rbench
