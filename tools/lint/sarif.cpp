#include "sarif.hpp"

#include <ostream>
#include <string_view>

namespace grads::lint {

namespace {

/// Rule metadata mirrored into the SARIF driver block so scanning UIs can
/// title findings without the full message.
struct RuleMeta {
  std::string_view id;
  std::string_view text;
};
constexpr RuleMeta kRules[] = {
    {"R1", "wall-clock or ambient randomness in src/"},
    {"R2", "address-order nondeterminism"},
    {"R3", "side effect inside a check macro"},
    {"R4", "raw allocation or type-erased callback on the hot path"},
    {"R5", "include hygiene violation"},
    {"R7", "mutable static or thread_local shared state"},
    {"R8", "architecture layering DAG inversion"},
    {"R9", "snapshot field missing from its type's field list"},
    {"R10", "by-reference capture handed to the engine"},
};

void writeEscaped(std::ostream& os, std::string_view s) {
  for (const char ch : s) {
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(ch >> 4) & 0xf] << hex[ch & 0xf];
        } else {
          os << ch;
        }
    }
  }
}

}  // namespace

void writeSarif(std::ostream& os, const TreeReport& report) {
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"grads-lint\",\n"
     << "          \"version\": \"2.0.0\",\n"
     << "          \"rules\": [\n";
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    os << "            {\"id\": \"" << kRules[i].id
       << "\", \"shortDescription\": {\"text\": \"" << kRules[i].text
       << "\"}}" << (i + 1 < std::size(kRules) ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    os << "        {\n"
       << "          \"ruleId\": \"" << f.rule << "\",\n"
       << "          \"level\": \"" << f.severity << "\",\n"
       << "          \"message\": {\"text\": \"";
    writeEscaped(os, f.message);
    os << "\"},\n"
       << "          \"locations\": [\n"
       << "            {\n"
       << "              \"physicalLocation\": {\n"
       << "                \"artifactLocation\": {\"uri\": \"";
    writeEscaped(os, f.file);
    os << "\", \"uriBaseId\": \"%SRCROOT%\"},\n"
       << "                \"region\": {\"startLine\": "
       << (f.line > 0 ? f.line : 1) << "}\n"
       << "              }\n"
       << "            }\n"
       << "          ]";
    if (f.suppressed) {
      os << ",\n"
         << "          \"suppressions\": [\n"
         << "            {\"kind\": \"inSource\", \"justification\": \"";
      writeEscaped(os, f.suppressReason);
      os << "\"}\n"
         << "          ]";
    }
    os << "\n        }" << (i + 1 < report.findings.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
}

}  // namespace grads::lint
