"""Sentence segmentation and coarse part-of-speech tagging.

Prose, the text of an NL artifact as much as a code comment, becomes
sentences of plain tokens; the tagger runs when biterms are extracted. It
assigns one of four coarse tags (noun, verb, adj, other) by the first rule
that fits, in this order: the lexicon table `_LEXICONS` (other, verb, adj and
noun words), an "-ly" ending (other), the token's singular in the verb and
then the noun lexicon, an all-caps token of two or more characters (noun),
the suffix table `_SUFFIXES` (adj, noun and verb suffixes), and otherwise
noun. Purely numeric tokens get no tag at all. This is deliberately
lightweight: downstream only needs to separate content words
(noun/verb/adjective) from everything else.

The two lexicon rules are one dict lookup each, in maps built once from
`_LEXICONS`: `_WORD_TAGS` maps each word to the tag of the first lexicon
that holds it, and `_SINGULAR_TAGS` maps each verb and noun to its tag,
verb where a word is both. Each is exact because a map built in reverse
check order keeps, for a word in several lexicons, the tag written last,
which is the one the check order reaches first.
"""

from __future__ import annotations

import re
from functools import lru_cache

NOUN = "noun"
VERB = "verb"
ADJ = "adj"
OTHER = "other"

_TOKEN = re.compile(r"[A-Za-z0-9]+")
_SENTENCE_END = re.compile(r"[.?!]+(?=\s|$)")

# Sentence-terminal periods after these (lowercased, dot-free) do not split.
_ABBREVIATIONS = frozenset({
    "eg", "ie", "etc", "cf", "vs", "fig", "figs", "mr", "mrs", "ms", "dr",
    "prof", "inc", "ltd", "co", "jr", "sr", "st", "dept", "approx",
})

# The lexicons of common English words, in check order: a word in two of them
# takes the first one's tag. `other` holds closed-class words and common adverbs.
_LEXICONS = {
    OTHER: frozenset("""
the a an this that these those my your his her its our their any some each
every either neither no not and or but nor so yet if then else when whenever
while where wherever why how what which who whom whose as than because since
although though unless until before after during of in on at by to from with
without within into onto over under above below between among through
throughout across along around about against toward towards upon off out up
down near behind beyond via per is am are was were be been being have has had
do does did shall should will would may might must can could cannot ought
need dare it he she they them we us you i me him hers ours theirs mine
there here now always never often sometimes usually rarely seldom already
just only also too very quite rather almost nearly both all many much more
most less least few fewer enough such same other another several
""".split()),
    VERB: frozenset("""
apply applies applied applying select selects selected selecting assign
assigns assigned assigning halt halts halted halting stop stops stopped
stopping show shows showed shown showing display displays displayed view
views viewed viewing log logs logged logging occur occurs occurred use uses
used using allow allows allowed trigger triggers triggered cancel cancels
cancelled refresh refreshes draw draws drew drawn perform performs performed
provide provides provided create creates created update updates updated
delete deletes deleted remove removes removed add adds added send sends sent
receive receives received enable enables enabled disable disables disabled
run runs ran running execute executes executed handle handles handled manage
manages managed support supports supported define defines defined describe
describes described specify specifies specified contain contains contained
include includes included return returns returned process processes processed
validate validates validated verify verifies verified check checks checked
track tracks tracked monitor monitors monitored control controls controlled
navigate navigates schedule schedules scheduled activate activates activated
load loads loaded save saves saved store stores stored set sets click clicks
clicked press presses pressed open opens opened close closes closed choose
chooses chose chosen edit edits edited build builds built write writes wrote
written read reads parse parses parsed render renders rendered fetch fetches
fetched request requests requested notify notifies notified record records
recorded report reports reported
""".split()),
    ADJ: frozenset("""
available current standard new active inactive valid invalid main primary
secondary remote local manual automatic visible hidden required optional
default internal external global maximum minimum high low wide narrow fast
slow safe unsafe ready busy early late big small large little good bad
entire whole
""".split()),
    NOUN: frozenset("""
user users pilot pilots operator operators uav uavs drone drones route
routes list lists operation operations flight flights battery batteries
status aircraft fleet fleets alarm alarms button buttons icon icons box
boxes info information detail details component components panel panels
dialog dialogs sensor sensors timer timers level levels map maps datum data
file files code class classes method methods test tests requirement
requirements design designs definition definitions interface interfaces
message messages error errors warning warnings resource resources name names
number numbers time times date dates screen screens page pages item items
field fields type types value values result results state states event
events task tasks action actions option options setting settings summary
summaries emergency emergencies
""".split()),
}

# The suffix rules, in check order; a suffix counts only after three other letters.
_SUFFIXES = {
    ADJ: ("able", "ible", "ous", "ful", "less", "ive", "ish", "ic", "ical", "ary", "al"),
    NOUN: ("tion", "sion", "ness", "ment", "ance", "ence", "ity", "ship", "ism", "ist", "hood",
           "age", "ery", "er", "or"),
    VERB: ("ize", "ise", "ify", "ate", "ing", "ed"),
}


# The two lexicon rules as one lookup each; the module docstring says why they are exact.
_WORD_TAGS = {word: tag for tag, words in reversed(_LEXICONS.items()) for word in words}
_SINGULAR_TAGS = {word: tag for tag in (NOUN, VERB) for word in _LEXICONS[tag]}


@lru_cache(maxsize=None)
def tag_token(token: str) -> str | None:
    """Tag one token: noun, verb, adj, other, or None when untaggable (cached per word)."""
    if token.isdigit():
        return None
    lowered = token.lower()
    tag = _WORD_TAGS.get(lowered)
    if tag is not None:
        return tag
    if lowered.endswith("ly"):
        return OTHER
    # Plural lookup: strip trailing s/es and retry the verbs, then the nouns.
    tag = _SINGULAR_TAGS.get(_strip_plural(lowered))
    if tag is not None:
        return tag
    if token.isupper() and len(token) >= 2:
        return NOUN
    tail = lowered[3:]
    for tag, suffixes in _SUFFIXES.items():
        if tail.endswith(suffixes):
            return tag
    return NOUN


def _strip_plural(word: str) -> str | None:
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("es") and len(word) > 3:
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) > 2:
        return word[:-1]
    return None


def split_sentences(text: str) -> list[str]:
    """Split prose into sentences at terminal punctuation, honouring abbreviations."""
    sentences: list[str] = []
    start = 0
    for match in _SENTENCE_END.finditer(text):
        candidate = text[start:match.end()]
        chunks = text[start:match.start()].split()
        last_word = re.sub(r"[^A-Za-z]", "", chunks[-1]).lower() if chunks else ""
        if last_word in _ABBREVIATIONS:
            continue
        if candidate.strip():
            sentences.append(candidate.strip())
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize_natural(text: str) -> list[list[str]]:
    """Segment text into sentences of tokens.

    Tokens are maximal alphanumeric runs; punctuation is dropped, and so is
    a sentence left with no token. Empty input yields no sentences.
    """
    return [tokens for sentence in split_sentences(text) if (tokens := _TOKEN.findall(sentence))]
