// jigsaw_analyze CLI: run the semantic dataflow rules over a set of
// files/directories, print findings as `path:line: [rule] message`, exit
// non-zero when anything fires.
//
//   jigsaw_analyze --obs-registry docs/OBS_REGISTRY.md
//       --obs-docs docs/OBSERVABILITY.md src/          # the CI gate
//   jigsaw_analyze --rule rcu-discipline src/engine    # one rule
//   jigsaw_analyze --write-obs-registry docs/OBS_REGISTRY.md src/
//   jigsaw_analyze --list-rules
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "lint/lint.hpp"

namespace {

const char kUsage[] =
    "usage: jigsaw_analyze [--rule NAME]... [--exclude SUBSTR]...\n"
    "                      [--obs-registry FILE] [--obs-docs FILE]\n"
    "                      [--write-obs-registry FILE] [--list-rules]\n"
    "                      PATH...\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("jigsaw_analyze: cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<std::string> rules;
  std::vector<std::string> excludes;
  jigsaw::analyze::Options opts;
  std::string write_registry;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rule") == 0 && i + 1 < argc) {
      rules.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--exclude") == 0 && i + 1 < argc) {
      excludes.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--obs-registry") == 0 && i + 1 < argc) {
      opts.registry_path = argv[++i];
    } else if (std::strcmp(argv[i], "--obs-docs") == 0 && i + 1 < argc) {
      opts.docs_path = argv[++i];
    } else if (std::strcmp(argv[i], "--write-obs-registry") == 0 &&
               i + 1 < argc) {
      write_registry = argv[++i];
    } else if (std::strcmp(argv[i], "--list-rules") == 0) {
      for (const std::string& name : jigsaw::analyze::rule_names()) {
        std::cout << name << "\n";
      }
      return 0;
    } else if (argv[i][0] == '-') {
      std::cerr << kUsage;
      return 2;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  try {
    const std::vector<std::string> sources =
        jigsaw::lint::collect_sources(paths);
    std::vector<jigsaw::lint::SourceFile> files;
    files.reserve(sources.size());
    for (const std::string& path : sources) {
      bool excluded = false;
      for (const std::string& sub : excludes) {
        if (path.find(sub) != std::string::npos) excluded = true;
      }
      if (excluded) continue;
      files.push_back(jigsaw::lint::load_source(path));
    }

    if (!write_registry.empty()) {
      std::ofstream out(write_registry, std::ios::binary);
      if (!out) {
        std::cerr << "jigsaw_analyze: cannot write " << write_registry << "\n";
        return 2;
      }
      out << jigsaw::analyze::generate_obs_registry(files);
      std::cerr << "jigsaw_analyze: wrote " << write_registry << " from "
                << files.size() << " files\n";
      return 0;
    }

    if (!opts.registry_path.empty()) {
      opts.registry_content = read_file(opts.registry_path);
    }
    if (!opts.docs_path.empty()) {
      opts.docs_content = read_file(opts.docs_path);
    }
    const std::vector<jigsaw::lint::Finding> findings =
        jigsaw::analyze::run_rules(files, rules, opts);
    for (const jigsaw::lint::Finding& f : findings) {
      std::cout << f.to_string() << "\n";
    }
    std::cerr << "jigsaw_analyze: " << files.size() << " files, "
              << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s") << "\n";
    return findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
