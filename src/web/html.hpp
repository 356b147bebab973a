// html.hpp — HTML generation helpers for the PowerPlay pages.
//
// "A WWW page is written in HyperText Markup Language (HTML).  HTML
// pages enable hyperlinks to other pages and calls to programs located
// on the WWW."  These helpers generate the mid-90s-plain pages the Perl
// scripts printed: headings, tables (Figure 2/5 spreadsheets), forms
// (Figure 4 model input), and hyperlinks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "web/url.hpp"

namespace powerplay::web {

/// Escape &, <, >, and " for element/attribute context.
std::string html_escape(const std::string& text);

/// Hyperlink with an encoded query.
std::string link(const std::string& path, const Params& query,
                 const std::string& text);

class HtmlPage {
 public:
  explicit HtmlPage(std::string title);

  HtmlPage& heading(const std::string& text, int level = 2);
  HtmlPage& paragraph(const std::string& text);
  /// Raw pre-escaped fragment (tables/forms built below).
  HtmlPage& raw(const std::string& fragment);
  HtmlPage& rule();

  /// Final document.
  [[nodiscard]] std::string str() const;

 private:
  std::string title_;
  std::string body_;
};

/// Table builder (rows of already-escaped cells are a footgun, so every
/// cell is escaped here).
class HtmlTable {
 public:
  HtmlTable& header(const std::vector<std::string>& cells);
  HtmlTable& row(const std::vector<std::string>& cells);
  [[nodiscard]] std::string str() const;

 private:
  static std::string render_cell(const std::string& cell, const char* tag);
  std::string rows_;
};

/// A page rendered once and served to many users: the markup plus the
/// byte offsets where the user's name goes, each tagged with how it is
/// encoded there.  Holes are recorded while writing, never found by
/// searching the text — row names, model names and descriptions are
/// user-controlled and may contain any marker.
class PageTemplate {
 public:
  enum class Encoding : std::uint8_t {
    kAttribute,   ///< html_escape(user): an attribute value
    kQueryValue,  ///< html_escape(url_encode(user)): a query value in an href
  };
  struct Hole {
    std::size_t offset = 0;
    Encoding encoding = Encoding::kAttribute;
  };

  PageTemplate() = default;
  /// A page that names no user (spliced, it is `markup` itself).
  explicit PageTemplate(std::string markup) : markup_(std::move(markup)) {}

  /// The HtmlPage framing: title and <h1>, then the closing tags.
  PageTemplate& open(std::string_view title);
  PageTemplate& close();

  /// Pre-escaped markup, verbatim.
  PageTemplate& raw(std::string_view markup);
  /// Text, escaped for element/attribute context.
  PageTemplate& text(std::string_view text);
  /// <p>text</p>, escaped.
  PageTemplate& paragraph(std::string_view text);
  /// A hole for the user's name at the current end.
  PageTemplate& user(Encoding encoding);
  /// link(path, query + {user}, label) with the user as a hole.  Every
  /// key of `query` must sort before "user", as to_query orders them.
  PageTemplate& user_link(std::string_view path, const Params& query,
                          std::string_view label);

  /// The page as `user` sees it.
  [[nodiscard]] std::string splice(const std::string& user) const;

  [[nodiscard]] const std::string& markup() const { return markup_; }
  [[nodiscard]] const std::vector<Hole>& holes() const { return holes_; }

 private:
  std::string markup_;
  std::vector<Hole> holes_;
};

/// Form builder: GET or POST with text inputs and a submit button.
class HtmlForm {
 public:
  HtmlForm(std::string action, std::string method = "POST");
  HtmlForm& hidden(const std::string& name, const std::string& value);
  HtmlForm& text_field(const std::string& label, const std::string& name,
                       const std::string& value);
  HtmlForm& submit(const std::string& label);
  [[nodiscard]] std::string str() const;

 private:
  std::string action_;
  std::string method_;
  std::string fields_;
};

}  // namespace powerplay::web
