"""Multimodal plumbing tests: schema, determinism, actor-pool feature
extraction, stubbed production decoder."""

import numpy as np
import pytest

from sophia_rs_ray.stages.multimodal import (
    FakeImageDecoder, ImageFeatureExtractor, PilImageDecoder,
    media_features, synthetic_media_dataset,
)


def test_fake_decoder_deterministic():
    d = FakeImageDecoder()
    a = d.decode(b"payload-123", 16, 8)
    b = d.decode(b"payload-123", 16, 8)
    assert a.shape == (8, 16, 3) and a.dtype == np.uint8
    assert np.array_equal(a, b)
    assert not np.array_equal(a, d.decode(b"payload-124", 16, 8))


def test_pil_decoder_is_stubbed():
    with pytest.raises(NotImplementedError):
        PilImageDecoder()


def test_media_features_pipeline(ray_session):
    ds = synthetic_media_dataset(40, override_num_blocks=4)
    out = media_features(ds, concurrency=2, batch_size=8)
    rows = out.take_all()
    assert len(rows) == 40
    assert {len(r["feature"]) for r in rows} == {4}
    # thumbs have the advertised fixed shape
    for r in rows[:5]:
        h, w, c = r["thumb_shape"]
        assert len(r["thumb"]) == h * w * c
    # deterministic across runs
    rows2 = media_features(synthetic_media_dataset(40, override_num_blocks=2),
                           concurrency=2, batch_size=16).take_all()
    m1 = {r["media_id"]: list(r["feature"]) for r in rows}
    m2 = {r["media_id"]: list(r["feature"]) for r in rows2}
    assert m1 == m2


def test_resize_shapes():
    ex = ImageFeatureExtractor(target=(4, 6))
    arr = FakeImageDecoder().decode(b"x", 32, 24)
    small = ex._resize(arr)
    assert small.shape == (4, 6, 3)


def test_frame_sampler_stride_and_shape(ray_session):
    from sophia_rs_ray.stages.multimodal import (sample_frames,
                                                 synthetic_video_dataset)

    rows = sample_frames(synthetic_video_dataset(8), every_sec=0.25) \
        .take_all()
    assert rows
    import collections
    by_vid = collections.defaultdict(list)
    for r in rows:
        by_vid[r["video_id"]].append(r)
        assert len(r["thumb"]) == 8 * 8 * 3
        assert list(r["thumb_shape"]) == [8, 8, 3]
    for vid, rs in by_vid.items():
        idxs = sorted(r["frame_idx"] for r in rs)
        # uniform stride from 0
        diffs = {b - a for a, b in zip(idxs, idxs[1:])}
        assert idxs[0] == 0 and len(diffs) <= 1


def test_frame_sampler_deterministic(ray_session):
    from sophia_rs_ray.stages.multimodal import (sample_frames,
                                                 synthetic_video_dataset)

    a = sorted((r["video_id"], r["frame_idx"], r["thumb"]) for r in
               sample_frames(synthetic_video_dataset(4)).take_all())
    b = sorted((r["video_id"], r["frame_idx"], r["thumb"]) for r in
               sample_frames(synthetic_video_dataset(4)).take_all())
    assert a == b


def test_audio_features_window_math(ray_session):
    import numpy as np

    from sophia_rs_ray.stages.multimodal import (FakeAudioDecoder,
                                                 audio_features,
                                                 synth_audio_batch,
                                                 synthetic_audio_dataset)
    import pyarrow as pa

    rows = audio_features(synthetic_audio_dataset(4),
                          window=1024).take_all()
    assert rows and all(0.0 <= r["zcr"] <= 1.0 for r in rows)
    # 8000 samples / 1024 → 7 full windows per clip
    import collections
    per = collections.Counter(r["audio_id"] for r in rows)
    assert set(per.values()) == {7}
    # spot-check one window's RMS against a direct computation
    b = synth_audio_batch(pa.table({"id": pa.array([0], pa.int64())}))
    pcm = FakeAudioDecoder().decode(b["payload"][0].as_py(), 8000)
    want = float(np.sqrt((pcm[:1024] ** 2).mean()))
    got = next(r["rms"] for r in rows
               if r["audio_id"] == 0 and r["window"] == 0)
    assert abs(got - want) < 1e-9


# ---------------------------------------------------------------------------
# round-4 real codecs: pure-numpy PNG (all five scanline filters) and
# RIFF/WAVE, driven through the same actor-pool stages
# ---------------------------------------------------------------------------

def test_png_roundtrip_all_filters_random():
    import numpy as np

    from sophia_rs_ray.stages.multimodal import decode_png, encode_png

    rng = np.random.default_rng(42)
    # heights >= 5 cycle through every filter type; include non-multiple
    # sizes and degenerate 1x1
    for h, w in [(16, 16), (24, 40), (32, 24), (7, 5), (5, 1), (1, 1),
                 (6, 33)]:
        arr = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(arr)), arr), (h, w)


def test_png_decoder_rejects_garbage():
    import pytest as _pytest

    from sophia_rs_ray.stages.multimodal import decode_png

    with _pytest.raises(ValueError):
        decode_png(b"not a png at all")


def test_wav_roundtrip_and_chunk_walk():
    import numpy as np

    from sophia_rs_ray.stages.multimodal import WavAudioDecoder, encode_wav

    rng = np.random.default_rng(7)
    pcm = rng.integers(-32768, 32768, size=4096).astype(np.int16)
    payload = encode_wav(pcm, 8000)
    out = WavAudioDecoder().decode(payload)
    assert np.allclose(out, pcm.astype(np.float32) / 32768.0)
    # decoder walks chunks: an extra LIST chunk before fmt/data is fine
    import struct

    extra = (payload[:12] + b"LIST" + struct.pack("<I", 4) + b"INFO" +
             payload[12:])
    # fix the RIFF size field
    extra = (b"RIFF" + struct.pack("<I", len(extra) - 8) + extra[8:])
    out2 = WavAudioDecoder().decode(extra)
    assert np.allclose(out2, out)


def test_wav_decoder_rejects_garbage():
    import pytest as _pytest

    from sophia_rs_ray.stages.multimodal import WavAudioDecoder

    with _pytest.raises(ValueError):
        WavAudioDecoder().decode(b"RIFFxxxxNOPE")


def test_png_video_decoder_slices_frames():
    import numpy as np
    import pyarrow as pa

    from sophia_rs_ray.stages.multimodal import (PngVideoDecoder,
                                                 decode_png,
                                                 synth_png_video_batch)

    b = synth_png_video_batch(pa.table({"doc_id": pa.array([3], pa.int64())}))
    payload = b["payload"][0].as_py()
    nf = b["n_frames"][0].as_py()
    dec = PngVideoDecoder()
    y = np.arange(16)[:, None, None]
    x = np.arange(16)[None, :, None]
    for idx in (0, 1, nf - 1):
        a = np.array([(3 * 7 + idx * 13 + c * 29) % 100
                      for c in range(3)])[None, None, :]
        want = (a + y + 2 * x).astype(np.uint8)
        assert np.array_equal(dec.frame(payload, idx), want), idx


def test_real_codec_media_features_closed_form(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from sophia_rs_ray.stages.multimodal import (PngImageDecoder,
                                                 media_features,
                                                 synth_png_media_batch)

    ids = rd.from_arrow(pa.table({"doc_id": pa.array(range(12), pa.int64())}))
    media = ids.map_batches(synth_png_media_batch, batch_format="pyarrow")
    rows = media_features(media, decoder=PngImageDecoder()).take_all()
    assert len(rows) == 12
    for r in rows:
        i = r["media_id"]
        h, w = 16 + (i % 3) * 8, 16 + (i % 4) * 8
        f = r["feature"]
        for c in range(3):
            want = (i * 7 + c * 29) % 100 + 0.4375 * h + 0.875 * w
            assert abs(f[c] - want) < 1e-4, (i, c)
        assert abs(f[3] - (h / 8 + w / 4)) < 1e-4


@pytest.mark.parametrize("cpus,want", [(2, (1, 1)), (3, (1, 1)),
                                       (32, (2, 16))])
def test_actor_pool_leaves_a_cpu_free(monkeypatch, cpus, want):
    """The pool never takes every CPU of a small session (a (2, 2) pool
    on 2 CPUs starved the read tasks); sizing only reads the cluster
    resources, so no cluster is started."""
    import ray

    from sophia_rs_ray.util import actor_pool

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": cpus})
    assert actor_pool() == want
