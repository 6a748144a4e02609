#ifndef WSQ_OBS_JSON_LITE_H_
#define WSQ_OBS_JSON_LITE_H_

#include <string>
#include <string_view>

namespace wsq {

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Does not add the surrounding quotes.
std::string JsonEscape(std::string_view text);

/// Formats a double as a JSON number token. JSON has no NaN/Infinity, so
/// non-finite values are emitted as null — exporters must stay parseable
/// whatever the metrics contain.
std::string JsonNumber(double value);

}  // namespace wsq

#endif  // WSQ_OBS_JSON_LITE_H_
