#include "serve/spec.hpp"

#include <fstream>
#include <sstream>

#include "comm/machine.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace lqcd::serve {

CampaignSpec parse_campaign(const json::Value& doc) {
  LQCD_REQUIRE(doc.is_object(), "campaign spec must be a JSON object");
  const std::string schema = doc.get_or("schema", std::string());
  if (schema != kSpecSchema)
    throw Error("campaign spec: schema '" + schema + "' (expected '" +
                kSpecSchema + "')");
  CampaignSpec spec;
  spec.name = doc.get_or("name", spec.name);

  const json::Value& configs = doc.at("configs");
  LQCD_REQUIRE(configs.is_array() && configs.size() > 0,
               "campaign spec: 'configs' must be a non-empty array");
  for (std::size_t i = 0; i < configs.size(); ++i)
    spec.configs.push_back(configs[i].as_string());

  const json::Value& kappas = doc.at("kappas");
  LQCD_REQUIRE(kappas.is_array() && kappas.size() > 0,
               "campaign spec: 'kappas' must be a non-empty array");
  for (std::size_t i = 0; i < kappas.size(); ++i) {
    const double k = kappas[i].as_double();
    LQCD_REQUIRE(k > 0.0 && k < 0.25,
                 "campaign spec: kappa out of (0, 0.25)");
    spec.kappas.push_back(k);
  }

  const json::Value& sources = doc.at("sources");
  LQCD_REQUIRE(sources.is_array() && sources.size() > 0,
               "campaign spec: 'sources' must be a non-empty array");
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string& s = sources[i].as_string();
    (void)parse_source_spec(s);  // validate at submit time
    spec.sources.push_back(s);
  }

  if (const json::Value* solver = doc.find("solver")) {
    spec.solver = parse_solver_kind(
        solver->get_or("kind", std::string(to_string(spec.solver))));
    spec.tol = solver->get_or("tol", spec.tol);
    spec.max_iterations =
        solver->get_or("max_iterations", spec.max_iterations);
    LQCD_REQUIRE(spec.tol > 0.0 && spec.tol < 1.0,
                 "campaign spec: tol out of (0, 1)");
    LQCD_REQUIRE(spec.max_iterations > 0,
                 "campaign spec: max_iterations must be positive");
  }

  if (const json::Value* sched = doc.find("schedule")) {
    spec.ranks = sched->get_or("ranks", spec.ranks);
    spec.machine = sched->get_or("machine", spec.machine);
    spec.max_retries = sched->get_or("max_retries", spec.max_retries);
    spec.heartbeat_margin =
        sched->get_or("heartbeat_margin", spec.heartbeat_margin);
    spec.deadline_misses =
        sched->get_or("deadline_misses", spec.deadline_misses);
    spec.speculate = sched->get_or("speculate", spec.speculate);
    LQCD_REQUIRE(spec.ranks >= 1 && spec.ranks <= 4096,
                 "campaign spec: ranks out of [1, 4096]");
    LQCD_REQUIRE(spec.max_retries >= 0,
                 "campaign spec: max_retries must be >= 0");
    LQCD_REQUIRE(spec.heartbeat_margin > 1.0,
                 "campaign spec: heartbeat_margin must exceed 1");
    LQCD_REQUIRE(spec.deadline_misses >= 1,
                 "campaign spec: deadline_misses must be >= 1");
    (void)machine_by_name(spec.machine);  // validate preset name
  }

  spec.output = doc.get_or("output", spec.output);
  LQCD_REQUIRE(!spec.output.empty(), "campaign spec: 'output' is empty");
  return spec;
}

CampaignSpec load_campaign(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open campaign spec " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return parse_campaign(json::Value::parse(buf.str()));
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

void write_campaign(json::Writer& w, const CampaignSpec& spec) {
  w.begin_object()
      .field("schema", kSpecSchema)
      .field("name", spec.name);
  w.key("configs").begin_array();
  for (const std::string& c : spec.configs) w.value(c);
  w.end_array();
  w.key("kappas").begin_array();
  for (const double k : spec.kappas) w.value(k);
  w.end_array();
  w.key("sources").begin_array();
  for (const std::string& s : spec.sources) w.value(s);
  w.end_array();
  w.key("solver")
      .begin_object()
      .field("kind", to_string(spec.solver))
      .field("tol", spec.tol)
      .field("max_iterations", spec.max_iterations)
      .end_object();
  w.key("schedule")
      .begin_object()
      .field("ranks", spec.ranks)
      .field("machine", spec.machine)
      .field("max_retries", spec.max_retries)
      .field("heartbeat_margin", spec.heartbeat_margin)
      .field("deadline_misses", spec.deadline_misses)
      .field("speculate", spec.speculate)
      .end_object();
  w.field("output", spec.output).end_object();
}

std::string canonical_json(const CampaignSpec& spec) {
  json::Writer w;
  write_campaign(w, spec);
  return w.str();
}

std::uint32_t spec_fingerprint(const CampaignSpec& spec) {
  const std::string doc = canonical_json(spec);
  return crc32(doc.data(), doc.size());
}

std::vector<SolveTask> build_tasks(const CampaignSpec& spec) {
  std::vector<SolveTask> tasks;
  tasks.reserve(static_cast<std::size_t>(spec.num_tasks()));
  int id = 0;
  for (int c = 0; c < static_cast<int>(spec.configs.size()); ++c)
    for (int k = 0; k < static_cast<int>(spec.kappas.size()); ++k)
      for (int s = 0; s < static_cast<int>(spec.sources.size()); ++s)
        tasks.push_back(
            {.id = id++, .config = c, .kappa = k, .source = s});
  return tasks;
}

}  // namespace lqcd::serve
