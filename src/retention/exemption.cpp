#include "retention/exemption.hpp"

#include <fstream>
#include <stdexcept>

namespace adr::retention {

void ExemptionList::reserve(std::string_view path) {
  trie_.insert(path, fs::FileMeta{});
}

bool ExemptionList::is_exempt(std::string_view path) const {
  return !trie_.empty() && trie_.contains_prefix_of(path);
}

std::vector<std::string> ExemptionList::reserved_paths() const {
  std::vector<std::string> out;
  out.reserve(trie_.file_count());
  trie_.for_each([&](const std::string& p, const fs::FileMeta&) {
    out.push_back(p);
  });
  return out;
}

ExemptionList ExemptionList::load(const std::string& file_path) {
  std::ifstream in(file_path);
  if (!in) throw std::runtime_error("ExemptionList: cannot open " + file_path);
  ExemptionList list;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r'))
      line.pop_back();
    std::size_t start = 0;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t'))
      ++start;
    if (start >= line.size()) continue;
    list.reserve(std::string_view(line).substr(start));
  }
  return list;
}

void ExemptionList::save(const std::string& file_path) const {
  std::ofstream out(file_path);
  if (!out) throw std::runtime_error("ExemptionList: cannot write " + file_path);
  for (const auto& p : reserved_paths()) out << p << '\n';
}

}  // namespace adr::retention
