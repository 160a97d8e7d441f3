"""Porter stemmer.

Classic five-step suffix-stripping algorithm, matching the behaviour of the
widely distributed reference implementation (and therefore its published test
vocabulary): step 2 uses the bli->ble and logi->log rules, and words of
length <= 2 are returned unchanged.

Only lowercase ASCII words are stemmed; anything containing a non-letter is
returned as-is so that numeric tokens pass through untouched.

Every consonant and vowel test reads the word's form (`_form`), one "c" or
"v" per letter, where a "y" after a consonant is a vowel and a leading "y" a
consonant. `porter_stem` computes it after step 1a and again only after a step
rewrites the word: a stem's form is the word's cut to the stem's length, so
its measure m of [C](VC)^m[V] is `form[:len(stem)].count("vc")`.
"""

from __future__ import annotations

# Each letter's class: "v" for a, e, i, o and u, "c" for the rest ("y" is settled in `_form`).
_CV = str.maketrans("abcdefghijklmnopqrstuvwxyz", "vcccvcccvcccccvcccccvccccc")


def _form(word: str) -> str:
    """The consonant/vowel form of `word`: one "c" or "v" per letter."""
    if "y" not in word:
        return word.translate(_CV)
    form = ""
    for letter in word:
        form += "v" if letter in "aeiou" or letter == "y" and form.endswith("c") else "c"
    return form


def _ends_cvc(word: str, form: str) -> bool:
    """True when word ends consonant-vowel-consonant and the last is not w, x or y."""
    return form.endswith("cvc") and word[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith(("sses", "ies")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def _step1b(word: str, form: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if form[:-3].count("vc") > 0 else word
    stem = word[:-2] if word.endswith("ed") else word.removesuffix("ing")
    form = form[: len(stem)]
    if stem == word or "v" not in form:
        return word
    # Cleanup after stripping -ed/-ing from a stem with a vowel.
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if stem[-1] not in "lsz" and stem[-2:] == 2 * stem[-1] and form[-1] == "c":
        return stem[:-1]
    if form.count("vc") == 1 and _ends_cvc(stem, form):
        return stem + "e"
    return stem


def _step1c(word: str, form: str) -> str:
    if word.endswith("y") and "v" in form[:-1]:
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


def _replace_longest(rules: dict[str, str], min_measure: int):
    """Step 2, 3 or 4: apply the rule of the longest suffix in `rules` that ends the word.

    Suffixes are tried longest first. The stem left must have a measure above
    `min_measure` (and, for -ion, end in s or t); otherwise the word stays.
    """
    lengths = sorted({len(suffix) for suffix in rules}, reverse=True)

    def step(word: str, form: str) -> str:
        for length in lengths:
            suffix = word[-length:]  # the whole word when it is shorter
            if suffix in rules:
                stem = word[: len(word) - len(suffix)]
                measure = form[: len(stem)].count("vc")
                if measure <= min_measure or suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                return stem + rules[suffix]
        return word
    return step


def _step5a(word: str, form: str) -> str:
    # Drop a final e after a measure above 1, or of 1 when the stem does not end cvc.
    stem, form = word[:-1], form[:-1]
    if word.endswith("e") and form.count("vc") > (1 if _ends_cvc(stem, form) else 0):
        return stem
    return word


def _step5b(word: str, form: str) -> str:
    if word.endswith("ll") and form.count("vc") > 1:
        return word[:-1]
    return word


_STEPS = (_step1b, _step1c, _replace_longest(_STEP2, 0), _replace_longest(_STEP3, 0),
          _replace_longest(_STEP4, 1), _step5a, _step5b)


def porter_stem(word: str) -> str:
    """Stem a lowercase word; non-alphabetic or length <= 2 inputs pass through."""
    if len(word) <= 2 or not word.isalpha() or not word.isascii():
        return word
    word = _step1a(word)
    form = _form(word)
    for step in _STEPS:
        stemmed = step(word, form)
        if stemmed is not word:
            word, form = stemmed, _form(stemmed)
    return word
