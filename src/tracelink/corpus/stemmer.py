"""Porter stemmer.

Classic five-step suffix-stripping algorithm, matching the behaviour of the
widely distributed reference implementation (and therefore its published test
vocabulary): step 2 uses the bli->ble and logi->log rules, and words of
length <= 2 are returned unchanged.

Only lowercase ASCII words are stemmed; anything containing a non-letter is
returned as-is so that numeric tokens pass through untouched.

`porter_stem` runs the five steps in one pass. Every consonant and vowel test
reads the word's form (`_form`), one "c" or "v" per letter, where a "y" after
a consonant is a vowel and a leading "y" a consonant. The form is computed
after step 1a and again only after a step rewrites the word: a stem's form is
the word's cut to the stem's length, so its measure m of [C](VC)^m[V] is
`form[:len(stem)].count("vc")`.

Steps 2-4 apply the rule of the longest suffix in their table that ends the
word. As the reference implementation switches on one letter, each step looks
up its candidates by one letter of the word, longest first: the penultimate
letter for steps 2 and 4 and the last letter for step 3. This is exact: a
suffix that ends the word shares the word's last letter and, having at least
two letters as every suffix of steps 2 and 4 does, its penultimate one. So
every suffix of the table that ends the word is among the candidates, and
the first candidate that ends it is the longest.
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

_PENULTIMATE, _LAST = slice(-2, -1), slice(-1, None)


def _by_letter(rules: dict[str, str], at: slice) -> dict[str, tuple[tuple[str, str], ...]]:
    """The (suffix, replacement) rules keyed by the suffix's letter `at`, each group longest first."""
    groups: dict[str, list[tuple[str, str]]] = {}
    for suffix in sorted(rules, key=len, reverse=True):
        groups.setdefault(suffix[at], []).append((suffix, rules[suffix]))
    return {letter: tuple(group) for letter, group in groups.items()}


# Steps 2-4: the rules by letter, the word's letter to look up, and the measure the stem must exceed.
_STEPS_2_TO_4 = (
    (_by_letter(_STEP2, _PENULTIMATE), _PENULTIMATE, 0),
    (_by_letter(_STEP3, _LAST), _LAST, 0),
    (_by_letter(_STEP4, _PENULTIMATE), _PENULTIMATE, 1),
)


def porter_stem(word: str) -> str:
    """Stem a lowercase word; non-alphabetic or length <= 2 inputs pass through."""
    if len(word) <= 2 or not word.isalpha() or not word.isascii():
        return word
    # Step 1a: plurals.
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif word[-1] == "s" and word[-2] != "s":
        word = word[:-1]
    form = _form(word)

    # Step 1b: -eed, and -ed or -ing after a stem with a vowel, then that stem's cleanup.
    if word.endswith("eed"):
        if "vc" in form[:-3]:
            word, form = word[:-1], form[:-1]
    elif word.endswith(("ed", "ing")):
        stem = word[:-2] if word[-1] == "d" else word[:-3]
        stem_form = form[: len(stem)]
        if "v" in stem_form:
            if stem.endswith(("at", "bl", "iz")):
                word = stem + "e"
            elif stem[-1] not in "lsz" and stem[-2:] == 2 * stem[-1] and stem_form[-1] == "c":
                word = stem[:-1]
            elif stem_form.count("vc") == 1 and _ends_cvc(stem, stem_form):
                word = stem + "e"
            else:
                word = stem
            form = _form(word)

    # Step 1c: a final y after a vowel in the stem becomes i.
    if word[-1] == "y" and "v" in form[:-1]:
        word = word[:-1] + "i"
        form = _form(word)

    for rules, at, min_measure in _STEPS_2_TO_4:
        for suffix, replacement in rules.get(word[at], ()):
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if form[: len(stem)].count("vc") > min_measure and (
                    suffix != "ion" or stem.endswith(("s", "t"))
                ):
                    word = stem + replacement
                    form = _form(word)
                break

    # Step 5a: drop a final e after a measure above 1, or of 1 when the stem does not end cvc.
    if word[-1] == "e":
        stem, stem_form = word[:-1], form[:-1]
        if stem_form.count("vc") > (1 if _ends_cvc(stem, stem_form) else 0):
            word, form = stem, stem_form
    # Step 5b: -ll after a measure above 1 loses an l.
    if word.endswith("ll") and form.count("vc") > 1:
        word = word[:-1]
    return word
