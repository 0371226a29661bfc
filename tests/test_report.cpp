// Reporting utilities: tables, ASCII charts, and the JSON
// parse/dump round trip the checkpoint machinery splices records with.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/report/ascii_plot.hpp"
#include "src/report/json.hpp"
#include "src/report/table.hpp"

namespace {

using namespace csense::report;

TEST(Json, ParsesScalarsAndStructure) {
    const auto doc = json_value::parse(
        "{\"a\": 1, \"b\": [true, false, null, \"s\"], \"c\": {\"d\": "
        "-2.5}}");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->find("a")->to_int64(), 1);
    const auto* b = doc->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->is_array());
    ASSERT_EQ(b->size(), 4u);
    EXPECT_TRUE(b->at(2).is_null());
    EXPECT_EQ(b->at(3).to_string_value(), "s");
    EXPECT_DOUBLE_EQ(doc->find("c")->find("d")->to_double(), -2.5);
}

TEST(Json, RejectsMalformedDocuments) {
    for (const char* bad :
         {"", "{", "[1,]", "{\"k\" 1}", "tru", "1 2", "\"unterminated",
          "[1] trailing", "nan", "--1", "+1"}) {
        std::string error;
        EXPECT_FALSE(json_value::parse(bad, &error).has_value())
            << "accepted malformed input: " << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Json, ParseDumpRoundTripIsByteStable) {
    // The checkpoint contract: for any document this class emits,
    // dump(parse(dump(v, 0)), 2) == dump(v, 2) byte-for-byte. Cover the
    // tricky number kinds: integers, doubles whose shortest form looks
    // integral (1e22), negative zero, uint64 beyond int64, escapes.
    json_value doc = json_value::object();
    doc["int"] = std::int64_t{-42};
    doc["uint_big"] = std::uint64_t{18446744073709551615ull};
    doc["dbl"] = 0.1;
    doc["dbl_integral_form"] = 1e22;
    doc["neg_zero"] = -0.0;
    doc["tiny"] = 5e-324;
    doc["nan_becomes_null"] = std::nan("");
    doc["str"] = "quote \" backslash \\ newline \n tab \t";
    json_value arr = json_value::array();
    arr.push_back(1);
    arr.push_back(2.5);
    arr.push_back(true);
    arr.push_back(json_value());
    doc["arr"] = std::move(arr);
    json_value nested = json_value::object();
    nested["empty_obj"] = json_value::object();
    nested["empty_arr"] = json_value::array();
    doc["nested"] = std::move(nested);

    for (const int indent : {0, 2}) {
        const std::string bytes = doc.dump(indent);
        const auto reparsed = json_value::parse(bytes);
        ASSERT_TRUE(reparsed.has_value()) << bytes;
        EXPECT_EQ(reparsed->dump(indent), bytes)
            << "parse/dump round trip changed bytes at indent " << indent;
        // The cross-indent contract the checkpoint splice relies on:
        // a record stored compact must re-emit identically when the
        // resumed document pretty-prints it.
        const auto compact = json_value::parse(doc.dump(0));
        ASSERT_TRUE(compact.has_value());
        EXPECT_EQ(compact->dump(2), doc.dump(2));
    }
}

TEST(Json, ParseHandlesUnicodeEscapes) {
    const auto doc = json_value::parse("\"a\\u00e9\\u4e2d\\u0041\"");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->to_string_value(), "a\xc3\xa9\xe4\xb8\xad""A");
}

TEST(Table, RendersAlignedColumns) {
    text_table table({"Rmax", "D", "eff"});
    table.add_row({"20", "55", "88%"});
    table.add_row({"120", "120", "92%"});
    const std::string out = table.render();
    EXPECT_NE(out.find("Rmax"), std::string::npos);
    EXPECT_NE(out.find("88%"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RejectsBadRows) {
    text_table table({"a", "b"});
    EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
    EXPECT_THROW(text_table({}), std::invalid_argument);
}

TEST(Table, Formatting) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmt_percent(0.876, 0), "88%");
    EXPECT_EQ(fmt_percent(0.876, 1), "87.6%");
}

TEST(Chart, RendersSeriesMarkersAndLegend) {
    series s1{"mux", {0, 1, 2, 3}, {1, 1, 1, 1}, 'm'};
    series s2{"conc", {0, 1, 2, 3}, {0, 1, 2, 3}, 'c'};
    plot_options opts;
    opts.width = 40;
    opts.height = 10;
    const std::string out = render_chart({s1, s2}, opts);
    EXPECT_NE(out.find('m'), std::string::npos);
    EXPECT_NE(out.find('c'), std::string::npos);
    EXPECT_NE(out.find("legend:"), std::string::npos);
    EXPECT_NE(out.find("mux"), std::string::npos);
}

TEST(Chart, RejectsBadInput) {
    EXPECT_THROW(render_chart({}, plot_options{}), std::invalid_argument);
    series bad{"x", {1, 2}, {1}, '*'};
    EXPECT_THROW(render_chart({bad}, plot_options{}), std::invalid_argument);
}

TEST(Chart, HandlesSinglePoint) {
    series s{"dot", {5.0}, {7.0}, 'o'};
    plot_options opts;
    opts.y_from_zero = false;
    const std::string out = render_chart({s}, opts);
    EXPECT_NE(out.find('o'), std::string::npos);
}

TEST(Heatmap, DimensionsAndRamp) {
    std::vector<double> values = {0.0, 0.5, 1.0, 0.25, 0.75, 0.9};
    const std::string out = render_heatmap(values, 2, 3, "capacity");
    // Two rows of 3 plus newlines plus legend line.
    const auto first_newline = out.find('\n');
    EXPECT_EQ(first_newline, 3u);
    EXPECT_NE(out.find("capacity"), std::string::npos);
    EXPECT_THROW(render_heatmap(values, 2, 2, ""), std::invalid_argument);
}

TEST(CategoryMap, PaletteLookup) {
    std::vector<int> cells = {0, 1, 2, -1};
    const std::string out = render_category_map(cells, 2, 2, ".x#");
    EXPECT_EQ(out, ".x\n# \n");
    EXPECT_THROW(render_category_map(cells, 3, 2, ".x#"),
                 std::invalid_argument);
}

}  // namespace
