"""Porter stemmer.

Classic five-step suffix-stripping algorithm, matching the behaviour of the
widely distributed reference implementation (and therefore its published test
vocabulary): step 2 uses the bli->ble and logi->log rules, and words of
length <= 2 are returned unchanged.

Only lowercase ASCII words are stemmed; anything containing a non-letter is
returned as-is so that numeric tokens pass through untouched.

Every consonant and vowel test reads the word's form (`_form`), one "c" or
"v" per letter, where a "y" after a consonant is a vowel and a leading "y" a
consonant. The measure m of [C](VC)^m[V] is the form's count of "vc".
"""

from __future__ import annotations


def _form(word: str) -> str:
    """The consonant/vowel form of `word`: one "c" or "v" per letter."""
    form = ""
    for letter in word:
        form += "v" if letter in "aeiou" or letter == "y" and form.endswith("c") else "c"
    return form


def _measure(stem: str) -> int:
    """Count VC sequences in the [C](VC)^m[V] decomposition of `stem`."""
    return _form(stem).count("vc")


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _form(word).endswith("c")


def _ends_cvc(word: str) -> bool:
    """True when word ends consonant-vowel-consonant and the last is not w, x or y."""
    return _form(word).endswith("cvc") and word[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith(("sses", "ies")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _measure(word[:-3]) > 0 else word
    stem = word[:-2] if word.endswith("ed") else word.removesuffix("ing")
    if stem == word or "v" not in _form(stem):
        return word
    # Cleanup after stripping -ed/-ing from a stem with a vowel.
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and not stem.endswith(("l", "s", "z")):
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and "v" in _form(word[:-1]):
        return word[:-1] + "i"
    return word


# Suffix -> replacement tables of steps 2-4; only the longest matching suffix is tried.
_STEP2 = {
    "ational": "ate",
    "tional": "tion",
    "enci": "ence",
    "anci": "ance",
    "izer": "ize",
    "bli": "ble",
    "alli": "al",
    "entli": "ent",
    "eli": "e",
    "ousli": "ous",
    "ization": "ize",
    "ation": "ate",
    "ator": "ate",
    "alism": "al",
    "iveness": "ive",
    "fulness": "ful",
    "ousness": "ous",
    "aliti": "al",
    "iviti": "ive",
    "biliti": "ble",
    "logi": "log",
}

_STEP3 = {
    "icate": "ic",
    "ative": "",
    "alize": "al",
    "iciti": "ic",
    "ical": "ic",
    "ful": "",
    "ness": "",
}

_STEP4 = dict.fromkeys((
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
), "")


def _replace_longest(word: str, rules: dict[str, str], min_measure: int) -> str:
    """Apply the rule of the longest suffix in `rules` that ends `word`.

    The stem left must have a measure above `min_measure` (and, for step 4's
    -ion, end in s or t); otherwise `word` comes back unchanged.
    """
    suffix = max(filter(word.endswith, rules), key=len, default=None)
    if suffix is None:
        return word
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) <= min_measure or (suffix == "ion" and not stem.endswith(("s", "t"))):
        return word
    return stem + rules[suffix]


def _step5a(word: str) -> str:
    # Drop a final e after a measure above 1, or of 1 when the stem does not end cvc.
    stem = word[:-1]
    if word.endswith("e") and _measure(stem) > (1 if _ends_cvc(stem) else 0):
        return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def porter_stem(word: str) -> str:
    """Stem a lowercase word; non-alphabetic or length <= 2 inputs pass through."""
    if len(word) <= 2 or not word.isalpha() or not word.isascii():
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2, 0)
    word = _replace_longest(word, _STEP3, 0)
    word = _replace_longest(word, _STEP4, 1)
    word = _step5a(word)
    word = _step5b(word)
    return word
