#include "grid/grid.hpp"

#include "common/text.hpp"

namespace hcc::grid {

void
shareAcrossSeeds(snap::ForkGroupSpec &group,
                 const std::vector<std::uint64_t> &seeds)
{
    const std::uint64_t ident =
        snap::identitySeed(group.app, group.sys, group.params);
    group.sys.seed = ident;
    group.params.seed = ident;
    group.cells.resize(seeds.size());
    for (std::size_t j = 0; j < seeds.size(); ++j)
        group.cells[j].seed = seeds[j];
}

Field
number(std::string literal)
{
    return {Field::Kind::Number, std::move(literal)};
}

Field
text(std::string_view s)
{
    return {Field::Kind::Text, std::string(s)};
}

Field
flag(bool on)
{
    return {Field::Kind::Flag, {}, on};
}

void
appendCsv(std::string &out, const Field &f)
{
    switch (f.kind) {
      case Field::Kind::Number: out += f.text; break;
      case Field::Kind::Text: out += csvField(f.text); break;
      case Field::Kind::Flag: out += f.flag ? '1' : '0'; break;
    }
}

void
appendJson(std::string &out, const Field &f)
{
    switch (f.kind) {
      case Field::Kind::Number: out += f.text; break;
      case Field::Kind::Text:
        out += '"';
        out += jsonEscape(f.text);
        out += '"';
        break;
      case Field::Kind::Flag: out += f.flag ? "true" : "false"; break;
    }
}

} // namespace hcc::grid
