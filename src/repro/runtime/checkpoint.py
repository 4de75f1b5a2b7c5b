"""Checkpointing helpers (paper Sec. 4.3, fault tolerance).

An Orion driver checkpoints parameter DistArrays by writing them to disk,
eagerly, typically every N data passes.  These helpers checkpoint/restore a
set of arrays atomically enough for the training-resume pattern: each
array's file goes to a temp name and is renamed into place, and a per-tag
*manifest* is written (atomically, last) only after every array of the tag
has landed — so restore can pick the latest *complete* tag and a crash
between two array renames can never produce a mixed-tag restore.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.core.distarray import DistArray
from repro.errors import CheckpointError

__all__ = [
    "checkpoint_arrays",
    "restore_arrays",
    "checkpoint_path",
    "manifest_path",
    "manifest_meta",
    "latest_complete_tag",
    "CheckpointPolicy",
    "CheckpointConfig",
]


def checkpoint_path(directory: str, name: str, tag: str) -> str:
    """Filesystem path for one array's checkpoint under a tag."""
    return os.path.join(directory, f"{name}.{tag}.ckpt")


def manifest_path(directory: str, tag: str) -> str:
    """Filesystem path of one tag's manifest file."""
    return os.path.join(directory, f"manifest.{tag}.json")


def checkpoint_arrays(
    arrays: Iterable[DistArray],
    directory: str,
    tag: str,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, str]:
    """Write each array's checkpoint under ``directory`` with ``tag``.

    Returns name -> path.  Each file is written to a temporary name first
    and renamed; after *all* arrays land, the tag's manifest is renamed
    into place the same way.  A tag without its manifest is incomplete by
    definition and ignored by :func:`latest_complete_tag`.
    """
    os.makedirs(directory, exist_ok=True)
    paths: Dict[str, str] = {}
    for array in arrays:
        final = checkpoint_path(directory, array.name, tag)
        temp = final + ".tmp"
        array.checkpoint(temp)
        try:
            os.replace(temp, final)
        except OSError as exc:
            raise CheckpointError(f"cannot finalize checkpoint {final!r}: {exc}")
        paths[array.name] = final
    manifest = {
        "tag": tag,
        "files": {name: os.path.basename(path) for name, path in paths.items()},
        "meta": dict(meta or {}),
    }
    final = manifest_path(directory, tag)
    temp = final + ".tmp"
    try:
        with open(temp, "w") as handle:
            json.dump(manifest, handle, indent=2)
        os.replace(temp, final)
    except OSError as exc:
        raise CheckpointError(f"cannot finalize manifest {final!r}: {exc}")
    return paths


def _read_manifest(directory: str, tag: str) -> Optional[Dict[str, Any]]:
    try:
        with open(manifest_path(directory, tag)) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def manifest_meta(directory: str, tag: str) -> Dict[str, Any]:
    """The ``meta`` dict stored with one tag's manifest ({} when absent)."""
    manifest = _read_manifest(directory, tag)
    if manifest is None:
        return {}
    return dict(manifest.get("meta", {}))


def _tag_sort_key(directory: str, tag: str) -> Any:
    meta = manifest_meta(directory, tag)
    epoch = meta.get("epoch")
    return (epoch if isinstance(epoch, (int, float)) else -1, tag)


def latest_complete_tag(directory: str) -> Optional[str]:
    """The newest tag whose manifest and every listed file exist.

    Tags are ordered by the ``epoch`` their manifest records (falling back
    to the tag string).  Tags missing any array file — e.g. half-pruned or
    interrupted mid-write — are skipped.
    """
    try:
        entries = os.listdir(directory)
    except OSError:
        return None
    complete: List[str] = []
    for entry in entries:
        if not (entry.startswith("manifest.") and entry.endswith(".json")):
            continue
        tag = entry[len("manifest."):-len(".json")]
        manifest = _read_manifest(directory, tag)
        if manifest is None:
            continue
        files = manifest.get("files", {})
        if all(
            os.path.exists(os.path.join(directory, name))
            for name in files.values()
        ):
            complete.append(tag)
    if not complete:
        return None
    return max(complete, key=lambda tag: _tag_sort_key(directory, tag))


class CheckpointPolicy:
    """Checkpoint every N data passes; restore the latest on demand.

    The paper's fault-tolerance pattern: "a common approach is to
    checkpoint the parameter DistArrays every N data passes".  Drive the
    policy from the training loop::

        policy = CheckpointPolicy([W, H], "/ckpts", every_n_epochs=5)
        for epoch in range(1, epochs + 1):
            loop.run()
            policy.step(epoch)
        ...
        policy.restore_latest()   # after a crash / for evaluation
    """

    def __init__(
        self,
        arrays: Iterable[DistArray],
        directory: str,
        every_n_epochs: int = 5,
        keep: int = 3,
    ) -> None:
        if every_n_epochs <= 0:
            raise CheckpointError("every_n_epochs must be positive")
        self.arrays = list(arrays)
        self.directory = directory
        self.every_n_epochs = every_n_epochs
        self.keep = max(1, keep)
        self._tags: list = []

    @property
    def latest_tag(self) -> str:
        """The most recent checkpoint tag, or raises when none exists."""
        if not self._tags:
            raise CheckpointError("no checkpoint has been written yet")
        return self._tags[-1]

    def step(self, epoch: int) -> bool:
        """Notify the policy that ``epoch`` finished; checkpoint when due.

        Returns whether a checkpoint was written.  Old checkpoints beyond
        ``keep`` are pruned (manifest first, so a partially pruned tag is
        never mistaken for a complete one).
        """
        if epoch % self.every_n_epochs != 0:
            return False
        tag = f"epoch{epoch}"
        checkpoint_arrays(
            self.arrays, self.directory, tag, meta={"epoch": epoch}
        )
        self._tags.append(tag)
        while len(self._tags) > self.keep:
            stale = self._tags.pop(0)
            stale_paths = [manifest_path(self.directory, stale)]
            stale_paths += [
                checkpoint_path(self.directory, array.name, stale)
                for array in self.arrays
            ]
            for path in stale_paths:
                try:
                    os.remove(path)
                except OSError:
                    pass
        return True

    def restore_latest(self) -> str:
        """Restore every array from the latest *complete* checkpoint.

        Prefers the newest on-disk tag whose manifest and files all exist
        (robust against a crash mid-checkpoint, and against checkpoints
        written by another process); falls back to this policy's own tag
        history when no manifest is found (pre-manifest directories).
        """
        tag = latest_complete_tag(self.directory)
        if tag is None:
            tag = self.latest_tag
        restore_arrays(self.arrays, self.directory, tag)
        return tag

    def restore(self, tag: str) -> None:
        """Restore every array from a specific tag."""
        restore_arrays(self.arrays, self.directory, tag)


@dataclass
class CheckpointConfig:
    """Declarative checkpointing for :class:`~repro.api.ParallelLoop`.

    Attach via ``LoopOptions(checkpoint=CheckpointConfig(...))`` — the
    loop then drives a :class:`CheckpointPolicy` automatically after each
    completed epoch, and fault recovery restores from the latest complete
    tag.

    Attributes:
        directory: where checkpoint files and manifests are written.
        every_n_epochs: checkpoint cadence (paper Sec. 4.3's "every N
            data passes").
        keep: checkpoints retained before pruning.
        arrays: the DistArrays to checkpoint; ``None`` selects every
            array the loop body writes (plus buffer flush targets).
    """

    directory: str
    every_n_epochs: int = 5
    keep: int = 3
    arrays: Optional[List[DistArray]] = None


def restore_arrays(
    arrays: Iterable[DistArray], directory: str, tag: str
) -> None:
    """Restore each array's storage in place from its tagged checkpoint."""
    for array in arrays:
        path = checkpoint_path(directory, array.name, tag)
        loaded = DistArray.load_checkpoint(path)
        if loaded.sparse != array.sparse:
            raise CheckpointError(
                f"checkpoint {path!r} is {'sparse' if loaded.sparse else 'dense'} "
                f"but target array is not"
            )
        if loaded.sparse:
            array.restore(dict(loaded.entries()))
            array._shape = loaded._shape
        else:
            array.set_dense(loaded.values)
