import json
import struct

import numpy as np
import pytest

from slat.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from slat.model import Params, SlatConfig, init_params, param_shapes


@pytest.fixture()
def tiny_state():
    cfg = SlatConfig(n_stw=6, n_channels=3, d_model=8, time_blocks=1,
                     sensor_blocks=1, decoder_blocks=1, heads=2, ffn_mult=2,
                     rank=2, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(0))
    pipeline = {"n_stw": 6, "stride": 1, "rul_cap": 125.0,
                "channels": ["a", "b", "c"]}
    return params, cfg, pipeline


def test_roundtrip_exact(tmp_path, tiny_state):
    params, cfg, pipeline = tiny_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg, pipeline)
    loaded, cfg2, pipe2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert pipe2 == pipeline
    assert set(loaded) == set(params)
    for k in params:
        np.testing.assert_array_equal(loaded[k], params[k])
        assert loaded[k].dtype == np.float64


def test_bytes_are_magic_header_then_flat(tmp_path, tiny_state):
    params, cfg, pipeline = tiny_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg, pipeline)
    index = [{"name": name, "shape": list(shape)} for name, shape in sorted(param_shapes(cfg))]
    head = json.dumps({"config": cfg.to_dict(), "pipeline": pipeline, "tensors": index,
                       "dtype": "<f8"}, sort_keys=True).encode("utf-8")
    assert path.read_bytes() == (MAGIC + struct.pack("<Q", len(head)) + head
                                 + params.flat.astype("<f8").tobytes())


def test_loaded_views_share_one_buffer_in_sorted_name_order(tmp_path, tiny_state):
    params, cfg, pipeline = tiny_state
    save_checkpoint(tmp_path / "m.ckpt", params, cfg, pipeline)
    loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert list(loaded) == sorted(params)
    loaded.flat[:] = np.arange(loaded.flat.size)
    np.testing.assert_array_equal(np.concatenate(list(loaded.values()), axis=None),
                                  np.arange(params.flat.size))


def test_resave_is_byte_identical(tmp_path, tiny_state):
    params, cfg, pipeline = tiny_state
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, cfg, pipeline)
    save_checkpoint(p2, params, cfg, pipeline)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_rejects_truncation(tmp_path, tiny_state):
    params, cfg, pipeline = tiny_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg, pipeline)
    data = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(data[:-16])
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_rejects_trailing_bytes(tmp_path, tiny_state):
    params, cfg, pipeline = tiny_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg, pipeline)
    (tmp_path / "fat.ckpt").write_bytes(path.read_bytes() + b"x")
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "fat.ckpt")


def test_rejects_tensors_its_config_does_not_list(tmp_path):
    """The config decides the tensor set: a checkpoint of other tensors is
    refused, naming the first index entry that differs."""
    cfg = SlatConfig(n_stw=6, n_channels=2, d_model=8, time_blocks=1,
                     sensor_blocks=1, decoder_blocks=1, heads=2, rank=2)
    params = Params([("w", (2, 3)), ("q", (4,))], np.arange(10, dtype=np.float64))
    save_checkpoint(tmp_path / "s.ckpt", params, cfg, None)
    with pytest.raises(ValueError, match=r"tensor entry 0 is \{'name': 'q', 'shape': \[4\]\}"):
        load_checkpoint(tmp_path / "s.ckpt")


def _with_config_field(src, dst, name, value):
    """Write ``dst``: checkpoint ``src`` with ``name: value`` added to its
    header's config, as a checkpoint of an older SlatConfig would carry it."""
    data = src.read_bytes()
    start = len(MAGIC) + 8
    (head_len,) = struct.unpack("<Q", data[len(MAGIC):start])
    header = json.loads(data[start:start + head_len])
    header["config"][name] = value
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(MAGIC + struct.pack("<Q", len(head)) + head + data[start + head_len:])


def test_rejects_removed_mask_mode(tmp_path, tiny_state):
    params, cfg, pipeline = tiny_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg, pipeline)
    legacy = tmp_path / "legacy.ckpt"
    _with_config_field(path, legacy, "mask_mode", "hadamard")
    with pytest.raises(ValueError,
                       match=r"legacy\.ckpt: unknown model config field\(s\): mask_mode$"):
        load_checkpoint(legacy)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_tensor(tmp_path, tiny_state, value):
    """The first tensor holding a non-finite value is named."""
    params, cfg, pipeline = tiny_state
    params["head.b"][...] = value
    params["time_embed.w"] *= value
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg, pipeline)
    with pytest.raises(ValueError, match=r"m\.ckpt: tensor head\.b holds non-finite"):
        load_checkpoint(path)
