#include "check/json_reader.hh"

#include <cctype>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace indra::check
{

namespace
{

/** Recursive-descent parser over an in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipSpace();
        fail_unless(pos == text.size(), "trailing characters");
        return v;
    }

  private:
    void
    fail_unless(bool ok, const char *what)
    {
        if (!ok)
            fatal("JSON parse error at offset ", pos, ": ", what);
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        fail_unless(pos < text.size(), "unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        fail_unless(pos < text.size() && text[pos] == c,
                    "unexpected character");
        ++pos;
    }

    bool
    consumeWord(const char *word)
    {
        std::size_t n = 0;
        while (word[n])
            ++n;
        if (text.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    JsonValue
    value()
    {
        skipSpace();
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
          case 'f':
            return boolean();
          case 'n': {
            fail_unless(consumeWord("null"), "bad literal");
            return JsonValue{};
          }
          default:
            return number();
        }
    }

    /** Enter one array/object level; recursion is bounded so a
     *  hostile document dies with an error, not a stack overflow. */
    void
    descend()
    {
        fail_unless(++depth <= maxDepth, "nesting too deep");
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        descend();
        skipSpace();
        if (peek() == '}') {
            ++pos;
            --depth;
            return v;
        }
        while (true) {
            skipSpace();
            JsonValue key = string();
            skipSpace();
            expect(':');
            v.fields.emplace_back(std::move(key.text), value());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            --depth;
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        descend();
        skipSpace();
        if (peek() == ']') {
            ++pos;
            --depth;
            return v;
        }
        while (true) {
            v.items.push_back(value());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            --depth;
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        expect('"');
        while (true) {
            fail_unless(pos < text.size(), "unterminated string");
            char c = text[pos++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.text.push_back(c);
                continue;
            }
            fail_unless(pos < text.size(), "unterminated escape");
            char esc = text[pos++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                v.text.push_back(esc);
                break;
              case 'b':
                v.text.push_back('\b');
                break;
              case 'f':
                v.text.push_back('\f');
                break;
              case 'n':
                v.text.push_back('\n');
                break;
              case 'r':
                v.text.push_back('\r');
                break;
              case 't':
                v.text.push_back('\t');
                break;
              case 'u': {
                bool hex = pos + 4 <= text.size();
                for (std::size_t i = 0; hex && i < 4; ++i)
                    hex = std::isxdigit(
                        static_cast<unsigned char>(text[pos + i]));
                fail_unless(hex, "bad \\u escape");
                unsigned code = static_cast<unsigned>(std::strtoul(
                    text.substr(pos, 4).c_str(), nullptr, 16));
                pos += 4;
                // The writers only escape control characters, which
                // fit one byte; anything else round-trips as '?'.
                v.text.push_back(code < 0x80
                                     ? static_cast<char>(code)
                                     : '?');
                break;
              }
              default:
                fail_unless(false, "unknown escape");
            }
        }
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (consumeWord("true")) {
            v.boolean = true;
            return v;
        }
        fail_unless(consumeWord("false"), "bad literal");
        v.boolean = false;
        return v;
    }

    JsonValue
    number()
    {
        std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '-' ||
                text[pos] == '+'))
            ++pos;
        fail_unless(pos > start, "expected a value");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.text = text.substr(start, pos - start);
        return v;
    }

    /** Far deeper than any document the writers emit (3 levels). */
    static constexpr unsigned maxDepth = 64;

    const std::string &text;
    std::size_t pos = 0;
    unsigned depth = 0;
};

} // anonymous namespace

const JsonValue *
JsonValue::field(const std::string &name) const
{
    for (const auto &[key, val] : fields) {
        if (key == name)
            return &val;
    }
    return nullptr;
}

namespace
{

/** @p name's number as source text, or nullptr when absent. */
const std::string *
numberText(const JsonValue &obj, const std::string &name,
           const std::string &path)
{
    const JsonValue *v = obj.field(name);
    if (!v)
        return nullptr;
    if (v->kind != JsonValue::Kind::Number)
        fatal("JSON field '", path, name, "' is not a number");
    return &v->text;
}

std::string
fieldWhat(const std::string &name, const std::string &path)
{
    return "JSON field '" + path + name + "'";
}

} // anonymous namespace

double
JsonValue::num(const std::string &name, double fallback, double lo,
               double hi, const std::string &path) const
{
    const std::string *text = numberText(*this, name, path);
    return text ? parseF64(fieldWhat(name, path), *text, lo, hi)
                : fallback;
}

std::uint64_t
JsonValue::u64(const std::string &name, std::uint64_t fallback,
               const std::string &path) const
{
    const std::string *text = numberText(*this, name, path);
    return text ? parseU64(fieldWhat(name, path), *text) : fallback;
}

std::uint32_t
JsonValue::u32(const std::string &name, std::uint32_t fallback,
               const std::string &path) const
{
    const std::string *text = numberText(*this, name, path);
    return text ? parseU32(fieldWhat(name, path), *text) : fallback;
}

bool
JsonValue::flag(const std::string &name, bool fallback,
                const std::string &path) const
{
    const JsonValue *v = field(name);
    if (!v)
        return fallback;
    if (v->kind != Kind::Bool)
        fatal(fieldWhat(name, path), " is not a boolean");
    return v->boolean;
}

std::string
JsonValue::str(const std::string &name, const std::string &fallback,
               const std::string &path) const
{
    const JsonValue *v = field(name);
    if (!v)
        return fallback;
    if (v->kind != Kind::String)
        fatal(fieldWhat(name, path), " is not a string");
    return v->text;
}

const std::vector<JsonValue> &
JsonValue::objects(const std::string &name) const
{
    static const std::vector<JsonValue> none;
    const JsonValue *v = field(name);
    if (!v)
        return none;
    if (v->kind != Kind::Array)
        fatal(fieldWhat(name, ""), " is not an array");
    for (const JsonValue &item : v->items) {
        if (item.kind != Kind::Object)
            fatal(fieldWhat(name + "[]", ""), " is not an object");
    }
    return v->items;
}

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).document();
}

} // namespace indra::check
