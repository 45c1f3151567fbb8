#ifndef WEBER_TEXT_NORMALIZER_H_
#define WEBER_TEXT_NORMALIZER_H_

#include <string>
#include <string_view>

namespace weber::text {

/// Options controlling string normalisation before tokenisation.
struct NormalizeOptions {
  /// Lowercase ASCII letters.
  bool lowercase = true;
  /// Replace punctuation with spaces (so "J.Smith" tokenises as two words).
  bool strip_punctuation = true;
  /// Collapse runs of whitespace into a single space and trim the ends.
  bool collapse_whitespace = true;

  bool operator==(const NormalizeOptions&) const = default;
};

/// Returns the normalised form of the input under the given options.
/// Operates byte-wise on ASCII; non-ASCII bytes pass through unchanged,
/// which is sufficient for the synthetic corpora used here.
std::string Normalize(std::string_view input,
                      const NormalizeOptions& options = {});

}  // namespace weber::text

#endif  // WEBER_TEXT_NORMALIZER_H_
