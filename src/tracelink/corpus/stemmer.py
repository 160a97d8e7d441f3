"""Porter stemmer.

Classic five-step suffix-stripping algorithm, matching the behaviour of the
widely distributed reference implementation (and therefore its published test
vocabulary): step 2 uses the bli->ble and logi->log rules, and words of
length <= 2 are returned unchanged.

Only lowercase ASCII words are stemmed; anything containing a non-letter is
returned as-is so that numeric tokens pass through untouched.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences in the [C](VC)^m[V] decomposition of `stem`."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """True when word ends consonant-vowel-consonant and the last is not w, x or y."""
    if len(word) < 3:
        return False
    if not _is_consonant(word, len(word) - 3):
        return False
    if _is_consonant(word, len(word) - 2):
        return False
    if not _is_consonant(word, len(word) - 1):
        return False
    return word[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    if word.endswith("ed"):
        stem = word[:-2]
        if not _contains_vowel(stem):
            return word
        word = stem
    elif word.endswith("ing"):
        stem = word[:-3]
        if not _contains_vowel(stem):
            return word
        word = stem
    else:
        return word
    # Cleanup after stripping -ed/-ing.
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
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
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _measure(stem)
    if m > 1:
        return stem
    if m == 1 and not _ends_cvc(stem):
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
