#include "web/html.hpp"

namespace powerplay::web {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
}

void append_head(std::string& out, std::string_view title) {
  out += "<html><head><title>";
  append_escaped(out, title);
  out += "</title></head>\n<body>\n<h1>";
  append_escaped(out, title);
  out += "</h1>\n";
}

constexpr std::string_view kTail = "</body></html>\n";

}  // namespace

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

std::string link(const std::string& path, const Params& query,
                 const std::string& text) {
  std::string href = path;
  if (!query.empty()) href += "?" + to_query(query);
  return "<a href=\"" + html_escape(href) + "\">" + html_escape(text) +
         "</a>";
}

HtmlPage::HtmlPage(std::string title) : title_(std::move(title)) {}

HtmlPage& HtmlPage::heading(const std::string& text, int level) {
  const std::string tag = "h" + std::to_string(level);
  body_ += "<" + tag + ">" + html_escape(text) + "</" + tag + ">\n";
  return *this;
}

HtmlPage& HtmlPage::paragraph(const std::string& text) {
  body_ += "<p>" + html_escape(text) + "</p>\n";
  return *this;
}

HtmlPage& HtmlPage::raw(const std::string& fragment) {
  body_ += fragment;
  return *this;
}

HtmlPage& HtmlPage::rule() {
  body_ += "<hr>\n";
  return *this;
}

std::string HtmlPage::str() const {
  std::string out;
  append_head(out, title_);
  out += body_;
  out += kTail;
  return out;
}

PageTemplate& PageTemplate::open(std::string_view title) {
  append_head(markup_, title);
  return *this;
}

PageTemplate& PageTemplate::close() { return raw(kTail); }

PageTemplate& PageTemplate::raw(std::string_view markup) {
  markup_ += markup;
  return *this;
}

PageTemplate& PageTemplate::text(std::string_view text) {
  append_escaped(markup_, text);
  return *this;
}

PageTemplate& PageTemplate::paragraph(std::string_view text) {
  return raw("<p>").text(text).raw("</p>\n");
}

PageTemplate& PageTemplate::user(Encoding encoding) {
  holes_.push_back({markup_.size(), encoding});
  return *this;
}

PageTemplate& PageTemplate::user_link(std::string_view path,
                                      const Params& query,
                                      std::string_view label) {
  raw("<a href=\"").text(path).raw("?");
  for (const auto& [key, value] : query) {
    text(url_encode(key)).raw("=").text(url_encode(value)).raw("&amp;");
  }
  return raw("user=").user(Encoding::kQueryValue).raw("\">").text(label).raw(
      "</a>");
}

std::string PageTemplate::splice(const std::string& user) const {
  if (holes_.empty()) return markup_;
  const std::string attribute = html_escape(user);
  const std::string query = html_escape(url_encode(user));
  std::size_t size = markup_.size();
  for (const Hole& hole : holes_) {
    size += hole.encoding == Encoding::kAttribute ? attribute.size()
                                                  : query.size();
  }
  std::string out;
  out.reserve(size);
  std::size_t at = 0;
  for (const Hole& hole : holes_) {
    out.append(markup_, at, hole.offset - at);
    out += hole.encoding == Encoding::kAttribute ? attribute : query;
    at = hole.offset;
  }
  out.append(markup_, at, std::string::npos);
  return out;
}

std::string HtmlTable::render_cell(const std::string& cell, const char* tag) {
  return std::string("<") + tag + ">" + html_escape(cell) + "</" + tag + ">";
}

HtmlTable& HtmlTable::header(const std::vector<std::string>& cells) {
  rows_ += "<tr>";
  for (const std::string& c : cells) rows_ += render_cell(c, "th");
  rows_ += "</tr>\n";
  return *this;
}

HtmlTable& HtmlTable::row(const std::vector<std::string>& cells) {
  rows_ += "<tr>";
  for (const std::string& c : cells) rows_ += render_cell(c, "td");
  rows_ += "</tr>\n";
  return *this;
}

std::string HtmlTable::str() const {
  return "<table border=\"1\">\n" + rows_ + "</table>\n";
}

HtmlForm::HtmlForm(std::string action, std::string method)
    : action_(std::move(action)), method_(std::move(method)) {}

HtmlForm& HtmlForm::hidden(const std::string& name, const std::string& value) {
  fields_ += "<input type=\"hidden\" name=\"" + html_escape(name) +
             "\" value=\"" + html_escape(value) + "\">\n";
  return *this;
}

HtmlForm& HtmlForm::text_field(const std::string& label,
                               const std::string& name,
                               const std::string& value) {
  fields_ += html_escape(label) + ": <input type=\"text\" name=\"" +
             html_escape(name) + "\" value=\"" + html_escape(value) +
             "\"><br>\n";
  return *this;
}

HtmlForm& HtmlForm::submit(const std::string& label) {
  fields_ += "<input type=\"submit\" value=\"" + html_escape(label) + "\">\n";
  return *this;
}

std::string HtmlForm::str() const {
  return "<form action=\"" + html_escape(action_) + "\" method=\"" +
         html_escape(method_) + "\">\n" + fields_ + "</form>\n";
}

}  // namespace powerplay::web
