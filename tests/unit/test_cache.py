"""Unit tests for the content-addressed run cache."""

from repro.eval.cache import (
    RunCache,
    clear_tree_digest_memo,
    source_tree_digest,
    task_key,
)

RUNNER = "pkg.mod:fn"


# -- keys ---------------------------------------------------------------------


def test_key_is_stable_for_identical_inputs():
    assert (task_key(RUNNER, {"a": 1, "b": 2}, "tree")
            == task_key(RUNNER, {"b": 2, "a": 1}, "tree"))


def test_key_changes_with_spec_runner_and_tree():
    base = task_key(RUNNER, {"seed": 1}, "tree")
    assert task_key(RUNNER, {"seed": 2}, "tree") != base
    assert task_key("pkg.mod:other", {"seed": 1}, "tree") != base
    # a source-tree edit rolls the tree digest, invalidating every key
    assert task_key(RUNNER, {"seed": 1}, "edited-tree") != base


def test_sweep_keys_a_task_by_its_runners_dotted_name(tmp_path):
    # The executor derives "module:qualname" from the function a task
    # carries, so entries keep the address the dotted-string runners had.
    from repro.eval.chaos import campaign_tasks, run_campaign_cell
    from repro.eval.parallel import run_sweep

    [task] = campaign_tasks([0], 60.0, intensities=("mild",), modes=("gap",))
    assert task.runner is run_campaign_cell
    cache = RunCache(tmp_path, tree_digest="tree")
    key = task_key("repro.eval.chaos:run_campaign_cell", task.spec, "tree")
    cache.put(key, {"verdict": "replayed"})
    [result] = run_sweep([task], cache=cache)
    assert result.cached and result.value == {"verdict": "replayed"}


def test_source_tree_digest_tracks_file_content(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text("x = 1\n")
    clear_tree_digest_memo()
    before = source_tree_digest(package)
    assert before == source_tree_digest(package)  # memoized and stable

    (package / "mod.py").write_text("x = 2\n")
    clear_tree_digest_memo()
    after = source_tree_digest(package)
    assert after != before

    (package / "extra.py").write_text("y = 3\n")
    clear_tree_digest_memo()
    assert source_tree_digest(package) != after


def test_default_tree_digest_covers_the_repro_package():
    clear_tree_digest_memo()
    assert len(source_tree_digest()) == 32  # blake2b-16 hex


# -- store --------------------------------------------------------------------


def test_round_trip_and_miss(tmp_path):
    cache = RunCache(tmp_path, tree_digest="t")
    key = cache.key_for(RUNNER, {"seed": 1})
    assert cache.get(key) is None
    cache.put(key, {"verdict": "pass"}, spec={"seed": 1})
    assert cache.get(key) == {"verdict": "pass"}
    assert cache.stats() == {"hits": 1, "misses": 1}


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = RunCache(tmp_path, tree_digest="t")
    key = cache.key_for(RUNNER, {"seed": 1})
    cache.put(key, {"ok": True})
    path = tmp_path / key[:2] / f"{key}.json"
    path.write_text("{ not json")
    assert cache.get(key) is None
    path.write_text('{"no_result_field": 1}')
    assert cache.get(key) is None


def test_source_change_invalidates_previous_entries(tmp_path):
    old = RunCache(tmp_path, tree_digest="tree-v1")
    old.put(old.key_for(RUNNER, {"seed": 1}), {"stale": True})
    fresh = RunCache(tmp_path, tree_digest="tree-v2")
    assert fresh.get(fresh.key_for(RUNNER, {"seed": 1})) is None


def test_put_on_unwritable_root_is_silent(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("a file where the cache dir should go")
    cache = RunCache(blocker, tree_digest="t")
    cache.put(cache.key_for(RUNNER, {}), {"ok": True})  # must not raise
    assert cache.get(cache.key_for(RUNNER, {})) is None
