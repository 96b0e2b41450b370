// The size pass (docs/WIRE.md, "Pricing frames"): every encoder runs over
// a wire::SizeCounter to price a frame without writing it. These tests
// pin that the price equals the length of the frame actually encoded, for
// every policy on both area codecs (MIDAS rectangles, Chord ring
// segments), for query, response and answer frames, with and without a
// trace context in the header.

#include "wire/buffer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "geom/scoring.h"
#include "geom/wire.h"
#include "net/envelope.h"
#include "overlay/chord/chord.h"
#include "overlay/midas/midas.h"
#include "queries/diversify.h"
#include "queries/range.h"
#include "queries/skyband.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "ripple/wire_codec.h"
#include "store/wire.h"
#include "wire/frame.h"

namespace ripple {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();

// --- the sink itself ---------------------------------------------------------

TEST(SizeCounterTest, CountsWhatABufferAppends) {
  wire::Buffer buf;
  wire::SizeCounter size;
  auto both = [&](auto&& put) {
    put(&buf);
    put(&size);
    EXPECT_EQ(size.size(), buf.size());
  };
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{16383}, uint64_t{16384}, uint64_t{1} << 35,
                     uint64_t{1} << 63, kMaxU64}) {
    both([&](auto* s) { s->PutVarint(v); });
    EXPECT_EQ(wire::VarintSize(v), [&] {
      wire::Buffer one;
      one.PutVarint(v);
      return one.size();
    }()) << v;
  }
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{63}, int64_t{-64},
                    int64_t{-65}, std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    both([&](auto* s) { s->PutZigzag(v); });
  }
  for (double v : {0.0, -0.0, kInf, -kInf, std::nan("")}) {
    both([&](auto* s) { s->PutF64(v); });
  }
  const uint8_t bytes[5] = {1, 2, 3, 4, 5};
  both([&](auto* s) {
    s->PutU8(9);
    s->PutFixed32(7);
    s->PutFixed64(kMaxU64);
    s->PutBytes(bytes, sizeof(bytes));
    s->WriteFixed32At(0, 3);
  });
}

// --- frames: every policy on both overlays ---------------------------------

/// Tuples that stress the varint and f64 encodings: ids from one byte to
/// ten, coordinates at +-inf and -0.0.
TupleVec AwkwardTuples(int dims) {
  const uint64_t ids[] = {0, 127, 128, uint64_t{1} << 35, kMaxU64 - 1};
  const double coords[] = {0.25, -0.0, kInf, -kInf, 1.0};
  TupleVec out;
  for (size_t i = 0; i < std::size(ids); ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) p[d] = coords[(i + d) % std::size(coords)];
    out.push_back(Tuple{ids[i], p});
  }
  return out;
}

/// Frame headers with no trace and with a sampled trace context, under a
/// message id and peer ids far from zero.
std::vector<net::Envelope> Envelopes(net::MessageKind kind) {
  const wire::TraceContext sampled{0xfeedfacecafebeefULL, 77,
                                   wire::kFrameFlagSampled};
  return {net::Envelope{0, 0, 0, kind, 0, {}},
          net::Envelope{kMaxU64, 3, 900000, kind, 2, sampled}};
}

/// For each (query, state, answer) case: the size pass prices each frame
/// at exactly the bytes the Buffer encode appends, and both report that
/// size as the frame size.
template <typename Overlay, typename Policy>
void ExpectFramesPricedExactly(
    const Overlay& overlay, const Policy& policy,
    const std::vector<typename Overlay::Area>& areas,
    const std::vector<typename Policy::Query>& queries,
    const std::vector<typename Policy::GlobalState>& states,
    const std::vector<typename Policy::Answer>& answers,
    const std::string& where) {
  const WireCodec<Overlay, Policy> codec(&overlay, &policy);
  for (const auto& env : Envelopes(net::MessageKind::kQuery)) {
    for (const auto& q : queries) {
      for (const auto& g : states) {
        for (const auto& area : areas) {
          for (int64_t r : {int64_t{0}, int64_t{-1}, int64_t{1} << 40}) {
            wire::Buffer buf;
            wire::SizeCounter size;
            const size_t written =
                codec.EncodeQueryMessage(env, q, g, area, r, &buf);
            const size_t priced =
                codec.EncodeQueryMessage(env, q, g, area, r, &size);
            EXPECT_EQ(priced, written) << where << " query frame";
            EXPECT_EQ(size.size(), buf.size()) << where << " query frame";
          }
        }
      }
    }
  }
  for (const auto& env : Envelopes(net::MessageKind::kResponse)) {
    for (const auto& s : states) {
      wire::Buffer buf;
      wire::SizeCounter size;
      const size_t written = codec.EncodeResponseFrame(env, s, &buf);
      const size_t priced = codec.EncodeResponseFrame(env, s, &size);
      EXPECT_EQ(priced, written) << where << " response frame";
      EXPECT_EQ(size.size(), buf.size()) << where << " response frame";
    }
  }
  for (const auto& env : Envelopes(net::MessageKind::kAnswer)) {
    for (const auto& a : answers) {
      wire::Buffer buf;
      wire::SizeCounter size;
      const size_t written = codec.EncodeAnswerMessage(env, a, &buf);
      const size_t priced = codec.EncodeAnswerMessage(env, a, &size);
      EXPECT_EQ(priced, written) << where << " answer frame";
      EXPECT_EQ(size.size(), buf.size()) << where << " answer frame";
    }
  }
}

/// Runs every policy's cases over one overlay.
template <typename Overlay>
void ExpectEveryPolicyPricedExactly(
    const Overlay& overlay, const std::vector<typename Overlay::Area>& areas,
    const std::string& overlay_name) {
  constexpr int kDims = 3;
  const TupleVec tuples = AwkwardTuples(kDims);
  const TupleVec none;
  const std::vector<TupleVec> answers = {none, tuples};

  const LinearScorer linear({-0.5, -kInf, -0.0});
  const NearestScorer nearest(Point{0.5, -0.0, kInf}, Norm::kLInf);
  ExpectFramesPricedExactly(
      overlay, TopKPolicy{}, areas,
      {TopKQuery{&linear, 10, 0.0}, TopKQuery{&nearest, size_t{1} << 20, 0.5}},
      {TopKPolicy{}.InitialGlobalState({}), TopKState{kMaxU64, -0.0}},
      answers, overlay_name + " topk");

  ExpectFramesPricedExactly(
      overlay, RangePolicy{}, areas,
      {RangeQuery{Point{0.5, -0.0, 0.25}, 0.125, Norm::kL1},
       RangeQuery{Point{kInf, 0.0, -kInf}, kInf, Norm::kL2}},
      {RangePolicy::Empty{}}, answers, overlay_name + " range");

  SkylineQuery constrained;
  constrained.constraint = Rect(Point{-kInf, -0.0, 0.0}, Point{kInf, 1, 1});
  ExpectFramesPricedExactly(
      overlay, SkylinePolicy{}, areas, {SkylineQuery{}, constrained},
      {SkylineState{}, SkylineState{tuples, TupleVec(tuples.begin(),
                                                     tuples.begin() + 2)}},
      answers, overlay_name + " skyline");

  ExpectFramesPricedExactly(
      overlay, SkybandPolicy{}, areas,
      {SkybandQuery{2, Norm::kL2}, SkybandQuery{300, Norm::kLInf}},
      {SkybandState{}, SkybandState{tuples, tuples}}, answers,
      overlay_name + " skyband");

  DivQuery div;
  div.objective.query = Point{0.5, -0.0, 0.25};
  div.objective.lambda = 0.5;
  DivQuery div_excluding = div;
  div_excluding.exclude = tuples;
  ExpectFramesPricedExactly(overlay, DivPolicy{}, areas, {div, div_excluding},
                            {DivState{}, DivState{-0.0}}, answers,
                            overlay_name + " diversify");
}

TEST(SizePassTest, EveryPolicyFrameOnMidas) {
  MidasOptions opt;
  opt.dims = 3;
  opt.seed = 9;
  MidasOverlay overlay(opt);
  ExpectEveryPolicyPricedExactly(
      overlay,
      {overlay.FullArea(), Rect(Point{-0.0, 0.25, 0.5}, Point{0.5, kInf, 1})},
      "midas");
}

TEST(SizePassTest, EveryPolicyFrameOnChord) {
  ChordOptions opt;
  opt.dims = 3;
  opt.seed = 5;
  ChordOverlay overlay(12, opt);
  ChordOverlay::Area split = overlay.FullArea();
  // A multi-segment area with wide varints, as restriction intersections
  // produce.
  split.segments.emplace_back(3, 9);
  split.segments.emplace_back(uint64_t{1} << 40, (uint64_t{1} << 41) + 5);
  ExpectEveryPolicyPricedExactly(overlay, {overlay.FullArea(), split},
                                 "chord");
}

}  // namespace
}  // namespace ripple
