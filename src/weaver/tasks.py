"""Task files and answer grading.

Tasks are line-delimited JSON records ``{id, question, answer, meta}``. For
the synthetic backend, ``meta`` carries the evidence chain (ordered doc ids)
that the simulated world is built from, so a task file fully determines the
world given the world parameters.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .streams import default_rng

_WS = re.compile(r"\s+")
_TERMINAL_PUNCT = re.compile(r"[.!?,;:]+$")


def normalize_answer(text: str) -> str:
    """Case-fold, trim, collapse whitespace, strip terminal punctuation."""
    out = _WS.sub(" ", text.strip()).casefold()
    return _TERMINAL_PUNCT.sub("", out).strip()


def grade(answer: str | None, gold: str) -> bool:
    if answer is None:
        return False
    return normalize_answer(answer) == normalize_answer(gold)


@dataclass(frozen=True)
class Task:
    id: str
    question: str
    answer: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.answer:
            raise ValueError(f"task {self.id!r} has an empty answer")

    @property
    def chain(self) -> tuple[int, ...]:
        """Evidence chain doc ids for the synthetic world (empty if not synthetic)."""
        return tuple(int(d) for d in self.meta.get("chain", ()))


def load_tasks(path: str | Path) -> list[Task]:
    tasks: list[Task] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            task = Task(
                id=str(row["id"]),
                question=str(row["question"]),
                answer=str(row["answer"]),
                meta=dict(row.get("meta") or {}),
            )
            if task.id in seen:
                raise ValueError(f"duplicate task id {task.id!r} at line {lineno}")
            seen.add(task.id)
            tasks.append(task)
    if not tasks:
        raise ValueError("no task in the file")
    return tasks


def save_tasks(tasks: Iterable[Task], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for task in tasks:
            fh.write(
                json.dumps(
                    {
                        "id": task.id,
                        "question": task.question,
                        "answer": task.answer,
                        "meta": task.meta,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


_ANSWER_WORDS = [
    "amber", "basalt", "cobalt", "dune", "ember", "fjord", "garnet", "heron",
    "indigo", "juniper", "krill", "lagoon", "mesa", "nimbus", "onyx", "pampas",
    "quartz", "reef", "sable", "tundra", "umber", "vortex", "willow", "xenon",
    "yarrow", "zephyr",
]


def synthetic_tasks(
    seed: int,
    num_tasks: int,
    num_docs: int = 400,
    chain_min: int = 1,
    chain_max: int = 3,
    synthesis_share: float = 0.5,
) -> list[Task]:
    """Generate seeded multi-hop tasks over a shared document pool.

    Each task hides an answer token at the end of a chain of ``k`` documents
    (k drawn uniformly from [chain_min, chain_max]). Lookup tasks state the
    token in the final doc; synthesis tasks encode it there, so a reasoning
    step over the full chain is needed.
    """
    if num_tasks < 1:
        raise ValueError(f"num_tasks must be at least 1, got {num_tasks}")
    if not 0 <= synthesis_share <= 1:
        raise ValueError(f"synthesis_share must be in [0, 1], got {synthesis_share}")
    if not 1 <= chain_min <= chain_max <= num_docs:
        raise ValueError(
            f"need 1 <= chain_min <= chain_max <= num_docs, got {chain_min}, {chain_max}, {num_docs}"
        )
    rng = default_rng([seed, 0x7A5C5])
    tasks = []
    for i in range(num_tasks):
        k = rng.integers(chain_min, chain_max + 1)
        chain = rng.choice(num_docs, k)
        word = _ANSWER_WORDS[rng.integers(0, len(_ANSWER_WORDS))]
        answer = f"{word}-{rng.integers(100, 1000)}"
        kind = "synthesis" if rng.random() < synthesis_share else "lookup"
        task_id = f"t{i:04d}"
        tasks.append(
            Task(
                id=task_id,
                question=(
                    f"Trace the reference chain for case {task_id} and report the"
                    " recorded conclusion token."
                ),
                answer=answer,
                meta={"chain": chain, "kind": kind},
            )
        )
    return tasks


def split_validation(tasks: Sequence[Task], validation_size: int) -> tuple[list[Task], list[Task]]:
    """First ``validation_size`` tasks are the self-play slice; the rest are scored."""
    return list(tasks[:validation_size]), list(tasks[validation_size:])
