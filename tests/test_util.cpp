// Unit tests for util: RNG, statistics, CRC32, CLI, error macros.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace lqcd {
namespace {

TEST(Error, RequireThrowsWithMessage) {
  try {
    LQCD_REQUIRE(false, "boom");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(LQCD_REQUIRE(1 + 1 == 2, ""));
  EXPECT_NO_THROW(LQCD_ASSERT(true, ""));
}

TEST(Rng, DeterministicAcrossInstances) {
  CounterRng a(123, 7);
  CounterRng b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentStreamsDiffer) {
  CounterRng a(123, 7);
  CounterRng b(123, 8);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, DifferentSeedsDiffer) {
  CounterRng a(1, 0);
  CounterRng b(2, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  CounterRng rng(99, 0);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMoments) {
  CounterRng rng(7, 3);
  const int n = 200000;
  double s1 = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    s1 += u;
    s2 += u * u;
  }
  EXPECT_NEAR(s1 / n, 0.5, 5e-3);
  EXPECT_NEAR(s2 / n, 1.0 / 3.0, 5e-3);
}

TEST(Rng, GaussianMoments) {
  CounterRng rng(11, 0);
  const int n = 200000;
  double s1 = 0.0, s2 = 0.0, s4 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    s1 += g;
    s2 += g * g;
    s4 += g * g * g * g;
  }
  EXPECT_NEAR(s1 / n, 0.0, 2e-2);
  EXPECT_NEAR(s2 / n, 1.0, 2e-2);
  EXPECT_NEAR(s4 / n, 3.0, 1e-1);  // kurtosis of the normal
}

TEST(Rng, UniformOpen0NeverZero) {
  CounterRng rng(13, 0);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.uniform_open0(), 0.0);
}

TEST(Rng, SiteFactoryReproducible) {
  SiteRngFactory f(42, 0);
  CounterRng a = f.make(1000, 3);
  CounterRng b = f.make(1000, 3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SiteFactoryEpochsIndependent) {
  SiteRngFactory f0(42, 0);
  SiteRngFactory f1 = f0.next_epoch();
  EXPECT_NE(f0.make(5, 0).next_u64(), f1.make(5, 0).next_u64());
  EXPECT_EQ(f1.epoch(), 1u);
}

TEST(Stats, MeanVariance) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(variance(xs), 5.0 / 3.0, 1e-14);
  EXPECT_NEAR(standard_error(xs), std::sqrt(5.0 / 3.0 / 4.0), 1e-14);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean(std::span<const double>{}), 0.0);
  const std::vector<double> one = {3.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
  EXPECT_DOUBLE_EQ(standard_error(one), 0.0);
}

TEST(Stats, JackknifeMeanMatchesStandardError) {
  CounterRng rng(5, 0);
  std::vector<double> xs(200);
  for (auto& x : xs) x = rng.gaussian();
  const auto jk = jackknife_mean(xs);
  EXPECT_NEAR(jk.value, mean(xs), 1e-12);
  // For the plain mean, jackknife error == standard error exactly.
  EXPECT_NEAR(jk.error, standard_error(xs), 1e-10);
}

TEST(Stats, JackknifeNonlinearEstimator) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto jk = jackknife(
      xs, [](std::span<const double> v) { return mean(v) * mean(v); });
  EXPECT_NEAR(jk.value, 9.0, 1e-12);
  EXPECT_GT(jk.error, 0.0);
}

TEST(Stats, JackknifeRequiresTwoSamples) {
  std::vector<double> xs = {1.0};
  EXPECT_THROW(jackknife_mean(xs), Error);
}

TEST(Stats, AutocorrelationOfIidIsHalf) {
  CounterRng rng(17, 0);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.gaussian();
  EXPECT_NEAR(integrated_autocorrelation(xs), 0.5, 0.15);
}

TEST(Stats, AutocorrelationDetectsCorrelation) {
  // AR(1) with strong correlation has tau >> 0.5.
  CounterRng rng(19, 0);
  std::vector<double> xs(5000);
  double prev = 0.0;
  for (auto& x : xs) {
    prev = 0.9 * prev + rng.gaussian();
    x = prev;
  }
  EXPECT_GT(integrated_autocorrelation(xs), 3.0);
}

TEST(Stats, JackknifeCorrelator) {
  std::vector<std::vector<double>> data = {
      {1.0, 2.0}, {1.2, 2.2}, {0.8, 1.8}};
  const auto est = jackknife_correlator(data);
  ASSERT_EQ(est.value.size(), 2u);
  EXPECT_NEAR(est.value[0], 1.0, 1e-12);
  EXPECT_NEAR(est.value[1], 2.0, 1e-12);
  EXPECT_GT(est.error[0], 0.0);
}

TEST(Stats, JackknifeCorrelatorRejectsRagged) {
  std::vector<std::vector<double>> data = {{1.0, 2.0}, {1.0}};
  EXPECT_THROW(jackknife_correlator(data), Error);
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value.
  const char s[] = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const char s[] = "hello, lattice world";
  const std::uint32_t whole = crc32(s, sizeof(s) - 1);
  std::uint32_t inc = crc32(s, 5);
  inc = crc32(s + 5, sizeof(s) - 1 - 5, inc);
  EXPECT_EQ(inc, whole);
}

TEST(Crc32, DetectsBitFlip) {
  std::vector<unsigned char> buf(256);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(i);
  const std::uint32_t a = crc32(buf.data(), buf.size());
  buf[100] ^= 1;
  EXPECT_NE(crc32(buf.data(), buf.size()), a);
}

TEST(Cli, ParsesTypedOptions) {
  const char* argv[] = {"prog", "--n=8", "--beta", "5.5", "--name=run1",
                        "--flag"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("n", 0), 8);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 5.5);
  EXPECT_EQ(cli.get_string("name", ""), "run1");
  EXPECT_TRUE(cli.get_flag("flag"));
  EXPECT_NO_THROW(cli.finish());
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_FALSE(cli.get_flag("missing"));
  EXPECT_FALSE(cli.has("n"));
}

TEST(Cli, RejectsUnknownOption) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.finish(), Error);
}

TEST(Cli, RejectsNonOptionArgument) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Cli(2, argv), Error);
}

TEST(Cli, SubcommandParsesVerbThenOptions) {
  const char* argv[] = {"tool", "run", "--n=3", "--flag"};
  Cli cli(4, argv, {"run", "status"});
  EXPECT_EQ(cli.command(), "run");
  EXPECT_EQ(cli.get_int("n", 0), 3);
  EXPECT_TRUE(cli.get_flag("flag"));
  EXPECT_NO_THROW(cli.finish());
}

TEST(Cli, SubcommandRejectsUnknownVerb) {
  const char* argv[] = {"tool", "frobnicate"};
  EXPECT_THROW(Cli(2, argv, {"run", "status"}), Error);
}

TEST(Cli, SubcommandRequiresVerb) {
  const char* argv[] = {"tool", "--n=3"};
  EXPECT_THROW(Cli(2, argv, {"run", "status"}), Error);
}

TEST(Cli, FlatParsingUnaffectedBySubcommandSupport) {
  // The flat constructor must never eat argv[1] as a verb.
  const char* argv[] = {"prog", "--run=1"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.command().empty());
  EXPECT_EQ(cli.get_int("run", 0), 1);
}

TEST(AccumTimer, CountsOnlyMatchedIntervals) {
  AccumTimer t;
  // Regression: a stray end() (no begin()) used to bump intervals(),
  // silently deflating total/intervals averages.
  t.end();
  EXPECT_EQ(t.intervals(), 0);
  EXPECT_EQ(t.total_seconds(), 0.0);
  t.begin();
  t.end();
  EXPECT_EQ(t.intervals(), 1);
  t.end();  // double end: still one interval
  EXPECT_EQ(t.intervals(), 1);
  t.begin();
  t.end();
  EXPECT_EQ(t.intervals(), 2);
}

TEST(AccumTimer, ResetClearsState) {
  AccumTimer t;
  t.begin();
  t.end();
  t.reset();
  EXPECT_EQ(t.intervals(), 0);
  EXPECT_EQ(t.total_seconds(), 0.0);
  t.end();  // reset also closes any open interval
  EXPECT_EQ(t.intervals(), 0);
}

TEST(JsonWriter, DeterministicDocument) {
  const auto build = [] {
    json::Writer w;
    w.begin_object()
        .field("schema", "lqcd.test/1")
        .field("count", 3)
        .field("ratio", 0.1)
        .key("dims")
        .begin_array()
        .value(4)
        .value(4)
        .end_array()
        .end_object();
    return w.str();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());  // byte-identical across builds
  // Keys come out in call order, scalar arrays stay on one line.
  EXPECT_NE(a.find("\"schema\": \"lqcd.test/1\""), std::string::npos);
  EXPECT_NE(a.find("[4, 4]"), std::string::npos);
}

TEST(JsonWriter, EscapesStringsAndRoundTripsDoubles) {
  json::Writer w;
  w.begin_object()
      .field("s", "a\"b\\c\nd")
      .field("x", 0.30000000000000004)
      .end_object();
  const json::Value v = json::Value::parse(w.str());
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\nd");
  EXPECT_EQ(v.at("x").as_double(), 0.30000000000000004);  // %.17g exact
}

TEST(JsonWriter, RawSplicesFragment) {
  json::Writer inner;
  inner.begin_object().field("a", 1).end_object();
  json::Writer w;
  w.begin_object().key("nested").raw(inner.str()).end_object();
  const json::Value v = json::Value::parse(w.str());
  EXPECT_EQ(v.at("nested").at("a").as_int(), 1);
}

TEST(JsonWriter, ThrowsOnUnbalancedDocument) {
  json::Writer w;
  w.begin_object();
  EXPECT_THROW(w.str(), Error);
}

TEST(JsonValue, ParsesTypedDocument) {
  const json::Value v = json::Value::parse(
      R"({"n": 7, "x": 2.5, "on": true, "none": null,
          "arr": [1, 2, 3], "obj": {"k": "v"}})");
  EXPECT_EQ(v.at("n").as_int(), 7);
  EXPECT_TRUE(v.at("n").is_integer());
  EXPECT_DOUBLE_EQ(v.at("x").as_double(), 2.5);
  EXPECT_FALSE(v.at("x").is_integer());
  EXPECT_TRUE(v.at("on").as_bool());
  EXPECT_TRUE(v.at("none").is_null());
  ASSERT_EQ(v.at("arr").size(), 3u);
  EXPECT_EQ(v.at("arr")[2].as_int(), 3);
  EXPECT_EQ(v.at("obj").at("k").as_string(), "v");
  EXPECT_EQ(v.get_or("missing", 42), 42);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, KeepsObjectKeysInFileOrder) {
  const json::Value v = json::Value::parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& items = v.items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, "z");
  EXPECT_EQ(items[1].first, "a");
  EXPECT_EQ(items[2].first, "m");
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW(json::Value::parse("{"), Error);
  EXPECT_THROW(json::Value::parse("{\"a\": }"), Error);
  EXPECT_THROW(json::Value::parse("[1, 2,]"), Error);
  EXPECT_THROW(json::Value::parse("{} trailing"), Error);
  EXPECT_THROW(json::Value::parse("nul"), Error);
  // Error messages carry a byte offset for spec debugging.
  try {
    json::Value::parse("[1, 2,]");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonValue, AccessorsEnforceKinds) {
  const json::Value v = json::Value::parse(R"({"s": "text"})");
  EXPECT_THROW((void)v.at("s").as_int(), Error);
  EXPECT_THROW((void)v.at("s").as_bool(), Error);
  EXPECT_THROW((void)v.at("s")[0], Error);
  EXPECT_THROW((void)v.at("missing"), Error);
}

TEST(JsonValue, IntegersConvertOnlyWhenIntegralAndInRange) {
  const json::Value v = json::Value::parse(
      R"({"whole": 3.0, "frac": 2.9, "huge": 1e300, "neg_inf": -1e999,
          "past_i64": 9223372036854775808, "i64_min": -9223372036854775808,
          "past_int": 4294967297})");
  EXPECT_EQ(v.at("whole").as_int(), 3);
  EXPECT_EQ(v.at("i64_min").as_int(),
            std::numeric_limits<std::int64_t>::min());
  for (const char* key : {"frac", "huge", "neg_inf", "past_i64"})
    EXPECT_THROW((void)v.at(key).as_int(), Error) << key;
  EXPECT_EQ(v.get_or("past_int", std::int64_t{0}), 4294967297);
  EXPECT_THROW((void)v.get_or("past_int", 0), Error);  // int narrowing
  try {
    (void)v.at("frac").as_int();
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2.9"), std::string::npos)
        << e.what();  // the message names the value
  }
}

}  // namespace
}  // namespace lqcd
