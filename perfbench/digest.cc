/**
 * @file
 * Output digests: FNV-1a over canonical output bytes, checked against
 * the committed digest file (digests.txt).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"

namespace perfbench {

std::string
digestOf(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      gemstone::exec::ResultStore::fnv1a(bytes)));
    return buf;
}

DigestBook::DigestBook(const std::string &path, bool write_mode)
    : filePath(path), writeMode(write_mode)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, digest;
        if (fields >> key >> digest)
            expected[key] = digest;
    }
}

bool
DigestBook::check(const std::string &key, const std::string &bytes)
{
    ++checkedCount;
    std::string digest = digestOf(bytes);
    auto [slot, added] = seen.emplace(key, digest);
    bool ok = slot->second == digest;
    if (!writeMode) {
        auto it = expected.find(key);
        ok = ok && it != expected.end() && it->second == digest;
    }
    if (!ok) {
        ++mismatchCount;
        std::cerr << "perfbench: output mismatch for " << key
                  << " (digest " << digest << ")\n";
    }
    return ok;
}

bool
DigestBook::same(const std::string &what, const std::string &a,
                 const std::string &b)
{
    ++checkedCount;
    if (a == b)
        return true;
    ++mismatchCount;
    std::cerr << "perfbench: " << what << " bytes differ ("
              << digestOf(a) << " vs " << digestOf(b) << ")\n";
    return false;
}

bool
DigestBook::save() const
{
    std::ofstream out(filePath);
    out << "# FNV-1a digests of every output the benchmark checks.\n"
           "# Regenerate with: python3 perfbench/run.py --workload "
           "cold_reproduce --seed 1 --seconds 10 --write-digests\n";
    for (const auto &[key, digest] : seen)
        out << key << " " << digest << "\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
