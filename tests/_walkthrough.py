"""Golden fixture: the longest-substring walkthrough.

Scripted candidates for every sampling step of the solved example, a three
document corpus for the retrieval step, and a lookup critic that scores each
known-best option highest. The expected selection sequence and final answer
are frozen here for the golden test.
"""

from __future__ import annotations

from dataclasses import dataclass

from criticplan.critics import ConstantCritic, CriticContext, CriticKind
from criticplan.generation import ScriptedBackend, ScriptedRule
from criticplan.mdp import ProblemInstance
from criticplan.retrieval import build_index


@dataclass(frozen=True)
class LookupRule:
    """Scores a candidate whose text contains `candidate_contains`, optionally
    gated on the concatenated context containing `context_contains`."""

    candidate_contains: str
    score: float
    context_contains: str | None = None


@dataclass(frozen=True)
class LookupCritic:
    """First-match rule table: the golden fixture's critic."""

    rules: tuple[LookupRule, ...]
    default: float = 0.0

    def score(self, ctx: CriticContext) -> float:
        context_text = "\n".join(obs.text for obs in ctx.context_observations)
        for rule in self.rules:
            if rule.candidate_contains not in ctx.candidate.text:
                continue
            if rule.context_contains is not None and rule.context_contains not in context_text:
                continue
            return rule.score
        return self.default


PROBLEM = ProblemInstance(
    problem_id="longest-substring",
    statement=(
        "Given a string s, find the length of the longest substring without "
        "repeating characters in optimal time complexity."
    ),
    gold_label="",
)

STEP2_RATIONALES = [
    "The optimal time complexity is O(n^2)",
    "The optimal time complexity is O(n)",
    "The optimal time complexity is O(n^3)",
]

STEP4_QUERIES = [
    "Given a string s, find the length of the longest substring without repeating "
    "characters in optimal time complexity",
    "Sliding window technique string problems",
    "Max length substring with unique characters with O(n) complexity",
]

DOC_EXAMPLES = (
    "Given a string s, find the length of the longest substring without repeating "
    "characters. Examples: Input: \"ABCBC\" Output: 3 Explanation: The longest "
    "substring without repeating characters is \"ABC\". Input: \"AAA\" Output: 1 "
    "Explanation: The longest substring without repeating characters is \"A\". "
    "Input: \"GEEKSFORGEEKS\" Output: 7 Explanation: The longest substrings without "
    "repeating characters are \"EKSFORG\" and \"KSFORGE\" with lengths of 7"
)

DOC_TWO_POINTERS = (
    "To deal with time complexity problems, it always helps to scale the problem up "
    "and think of a massive case. If your string was thousands of characters long, "
    "we still only have one start pointer and one end pointer. The key thing is that "
    "both the pointers will only ever move forward (along the string). Therefore, "
    "the complexity of this is definitely O(n) since they are only moving forward "
    "together through the string - so the time this process would take is "
    "proportional to the length of the string (the time it takes to get to the end)"
)

DOC_SLIDING_WINDOW = (
    "The intuition behind the solution is to iteratively find the longest substring "
    "without repeating characters by maintaining a sliding window approach. We use "
    "two pointers (left and right) to represent the boundaries of the current "
    "substring. As we iterate through the string, we update the pointers and adjust "
    "the window to accommodate new unique characters and eliminate repeating "
    "characters."
)

CORPUS_DOCUMENTS = [
    ("examples-and-cases", DOC_EXAMPLES),
    ("two-pointer-complexity", DOC_TWO_POINTERS),
    ("sliding-window-intuition", DOC_SLIDING_WINDOW),
]

STEP8_PLAN = (
    "To solve the problem efficiently, use a sliding window technique:\n"
    "1. Initialize a Window: Start with a window at the beginning of the string, "
    "which represents the current substring without repeating characters.\n"
    "2. Expand the Window: Move through the string one character at a time, adding "
    "each character to a data structure (like a set or dictionary) that keeps track "
    "of characters in the current window.\n"
    "3. Check for Repeats: If you encounter a character that is already in the data "
    "structure, it means there's a repetition within the current window.\n"
    "4. Adjust the Window: Move the start of the window forward, removing characters "
    "until the repeated character is excluded from the window. This ensures the "
    "window contains only unique characters.\n"
    "5. Update Maximum Length: Keep track of the maximum size of the window "
    "throughout the process. This represents the length of the longest substring "
    "without repeating characters.\n"
    "6. Continue Until End of String: Repeat the expand and adjust steps until you "
    "have traversed the entire string.\n"
    "This approach ensures that you examine each character at most twice (once when "
    "added and once when removed), resulting in optimal linear time complexity"
)

STEP8_RATIONALES = [
    "The retrieved document is not sufficient for solving the problem. Therefore, a "
    "second-level retrieval is required",
    STEP8_PLAN,
    "Here is the code:\n```python\ndef length_of_longest_substring(s):\n"
    "    char_index = {}\n    max_length = 0\n    start = 0\n\n"
    "    for idx, char in enumerate(s):\n        if char in char_index:\n"
    "            start = char_index[char]\n        char_index[char] = idx\n"
    "        current_length = idx - start\n        if current_length > max_length:\n"
    "            max_length = current_length\n\n    return max_length\n```",
]

FINAL_ANSWER = (
    "Here is the code:\n```python\ndef length_of_longest_substring(s):\n"
    "    char_index = {}\n    max_length = 0\n    start = 0\n\n"
    "    for idx, char in enumerate(s):\n"
    "        if char in char_index and char_index[char] >= start:\n"
    "            start = char_index[char] + 1\n        char_index[char] = idx\n"
    "        max_length = max(max_length, idx - start + 1)\n\n    return max_length\n```"
)

STEP10_RATIONALES = [
    "Here's a step-by-step plan:\n"
    "Initialize Pointers: Start with two pointers, left and right, both at the "
    "beginning of the string. These pointers define the current window of unique "
    "characters.\n"
    "Create a Character Map: Use a hash map to keep track of characters and their "
    "latest indices in the string.\n"
    "Iterate Through the String: Move the right pointer through the string one "
    "character at a time, checking for repeats, adjusting the left pointer past the "
    "last occurrence on a repeat, updating the character map, and computing the "
    "current window length as right - left + 1.\n"
    "Return the Result: After the loop ends, max_length will contain the length of "
    "the longest substring without repeating characters",
    FINAL_ANSWER,
    "Here is the code:\n```python\ndef length_of_longest_substring(s):\n"
    "    char_set = set()\n    left = 0\n    max_length = 0\n\n"
    "    for right in range(len(s)):\n        if s[right] in char_set:\n"
    "            char_set.clear()\n            left = right + 1\n"
    "        char_set.add(s[right])\n"
    "        max_length = max(max_length, right - left + 1)\n\n    return max_length\n```",
]

# Selection sequence (sub-goal target or candidate text) frozen from the
# solved example; sub-goal steps alternate with execution steps.
EXPECTED_SUBGOALS = ["reasoning", "querying", "retrieving", "reasoning", "reasoning"]
EXPECTED_EXECUTIONS = [
    STEP2_RATIONALES[1],
    STEP4_QUERIES[2],
    DOC_SLIDING_WINDOW,
    STEP8_RATIONALES[1],
    STEP10_RATIONALES[1],
]


def backend() -> ScriptedBackend:
    return ScriptedBackend(
        sample_rules=[
            # Most-specific trajectory content first: the step-8 plan implies
            # the final reasoning round, the retrieved document implies the
            # post-retrieval round.
            ScriptedRule(
                match=("[BEGIN PROBLEM]", "Adjust the Window"),
                candidates=tuple(STEP10_RATIONALES),
            ),
            ScriptedRule(
                match=("[BEGIN PROBLEM]", "sliding window approach"),
                candidates=tuple(STEP8_RATIONALES),
            ),
            ScriptedRule(
                match=("I need to generate a query", "The optimal time complexity is O(n)"),
                candidates=tuple(STEP4_QUERIES),
            ),
            ScriptedRule(
                match=("[BEGIN PROBLEM]", "longest substring without repeating"),
                candidates=tuple(STEP2_RATIONALES),
            ),
        ],
        conclude_rules=[
            ScriptedRule(match=("Adjust the Window",), response=FINAL_ANSWER),
        ],
        default_conclusion="no conclusion scripted",
    )


def corpus():
    return build_index(CORPUS_DOCUMENTS, corpus_id="walkthrough")


def critics() -> dict[CriticKind, LookupCritic | ConstantCritic]:
    subgoal = LookupCritic(
        rules=(
            LookupRule("generate a rationale", 1.0, context_contains="Adjust the Window"),
            LookupRule("generate a query", 0.1, context_contains="Adjust the Window"),
            LookupRule("retrieve a document", 0.1, context_contains="Adjust the Window"),
            LookupRule("generate a rationale", 1.0, context_contains="sliding window approach"),
            LookupRule("generate a query", 0.2, context_contains="sliding window approach"),
            LookupRule("retrieve a document", 0.1, context_contains="sliding window approach"),
            LookupRule("retrieve a document", 1.0, context_contains="Max length substring with unique"),
            LookupRule("generate a rationale", 0.3, context_contains="Max length substring with unique"),
            LookupRule("generate a query", 0.2, context_contains="Max length substring with unique"),
            LookupRule("generate a query", 1.0, context_contains="The optimal time complexity is O(n)"),
            LookupRule("generate a rationale", 0.3, context_contains="The optimal time complexity is O(n)"),
            LookupRule("retrieve a document", 0.2, context_contains="The optimal time complexity is O(n)"),
            LookupRule("generate a rationale", 0.9),
            LookupRule("generate a query", 0.5),
            LookupRule("retrieve a document", 0.4),
        )
    )
    rationale_critic = LookupCritic(
        rules=(
            LookupRule("The optimal time complexity is O(n)", 1.0),
            LookupRule("use a sliding window technique", 1.0),
            LookupRule("char_index[char] >= start", 1.0),
        )
    )
    query_critic = LookupCritic(
        rules=(LookupRule("Max length substring with unique characters", 1.0),)
    )
    doc_critic = LookupCritic(
        rules=(LookupRule("intuition behind the solution", 1.0),)
    )
    return {
        CriticKind.SUBGOAL: subgoal,
        CriticKind.RATIONALE: rationale_critic,
        CriticKind.QUERY: query_critic,
        CriticKind.DOC: doc_critic,
    }
