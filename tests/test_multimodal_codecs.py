"""Pure-numpy media codec tests: PNG/JPEG/BMP round-trips and the
real-decode path through DecodeImage.

No external image library exists in this container, so the test basis
is (a) exact round-trips for the lossless codecs, (b) tolerance
round-trips for JPEG across its sampling/restart variants, and
(c) spec-level rejection of unsupported streams.
"""

import numpy as np
import pyarrow as pa
import pytest

from deltaray.functions.imagecodecs import (
    decode_jpeg,
    decode_png,
    encode_jpeg,
    encode_png,
)
from deltaray.functions.multimodal import (
    DecodeImage,
    _synth_image,
    decode_bmp,
    encode_bmp,
    encode_ppm,
    synth_media_table,
)


def _gradient_rgb(h, w):
    x = np.linspace(0, 255, w)
    y = np.linspace(0, 255, h)
    return np.clip(
        np.stack([np.add.outer(y, x) / 2,
                  np.tile(x, (h, 1)),
                  np.tile(y[:, None], (1, w))], axis=-1),
        0, 255).astype(np.uint8)


# ------------------------------------------------------------------ PNG
@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("ch", [None, 1, 3, 4])
def test_png_roundtrip_exact(filter_type, ch):
    rng = np.random.default_rng(42 + filter_type)
    shape = (13, 17) if ch is None else (13, 17, ch)
    img = rng.integers(0, 256, shape, dtype=np.uint8)
    out = decode_png(encode_png(img, filter_type=filter_type))
    exp = img if ch is not None else img[:, :, None]
    assert np.array_equal(out, exp)


def test_png_rejects_non_png():
    with pytest.raises(ValueError, match="not a PNG"):
        decode_png(b"JFIF not a png at all........")


# ----------------------------------------------------------------- JPEG
@pytest.mark.parametrize("subsampling", ["444", "420"])
@pytest.mark.parametrize("restart_interval", [0, 4])
def test_jpeg_roundtrip_tolerance(subsampling, restart_interval):
    img = _gradient_rgb(64, 64)
    enc = encode_jpeg(img, quality=90, subsampling=subsampling,
                      restart_interval=restart_interval)
    dec = decode_jpeg(enc)
    assert dec.shape == img.shape
    err = np.abs(dec.astype(int) - img.astype(int)).mean()
    assert err < 6, f"{subsampling}/{restart_interval}: mean err {err}"


def test_jpeg_gray_and_odd_dims():
    x = np.linspace(0, 255, 64).astype(np.uint8)
    g = np.tile(x, (64, 1))
    dec = decode_jpeg(encode_jpeg(g, quality=90))
    assert dec.shape == (64, 64, 1)
    assert np.abs(dec[:, :, 0].astype(int) - g.astype(int)).mean() < 4
    # odd dims force edge padding in both the DCT grid and 4:2:0 chroma
    img = _gradient_rgb(37, 41)
    dec = decode_jpeg(encode_jpeg(img, quality=85, subsampling="420",
                                  restart_interval=3))
    assert dec.shape == (37, 41, 3)
    assert np.abs(dec.astype(int) - img.astype(int)).mean() < 8


def test_jpeg_quality_monotone():
    """Higher quality → more bytes and lower reconstruction error."""
    img = _gradient_rgb(48, 48)
    sizes, errs = [], []
    for q in (30, 70, 95):
        enc = encode_jpeg(img, quality=q)
        sizes.append(len(enc))
        errs.append(np.abs(decode_jpeg(enc).astype(int)
                           - img.astype(int)).mean())
    assert sizes == sorted(sizes)
    assert errs == sorted(errs, reverse=True)


def test_jpeg_rejects_progressive_and_garbage():
    img = _gradient_rgb(16, 16)
    enc = bytearray(encode_jpeg(img))
    sof = enc.find(b"\xFF\xC0")
    enc[sof + 1] = 0xC2  # flip SOF0 → SOF2 (progressive)
    with pytest.raises(ValueError, match="baseline"):
        decode_jpeg(bytes(enc))
    with pytest.raises(ValueError, match="SOI"):
        decode_jpeg(b"\x00\x01not a jpeg")


# ------------------------------------------------------------------ BMP
def test_fast_huffman_lut_cache_evicts_oldest(monkeypatch):
    """The decoded-LUT cache keeps the 64 newest tables (FIFO): a corpus
    with more distinct optimized Huffman tables still hits on recent
    ones instead of rebuilding every table past the 64th."""
    from deltaray.functions import imagecodecs

    monkeypatch.setattr(imagecodecs, "_FAST_LUT_CACHE", {})
    luts = [{(8, code): 1} for code in range(65)]
    built = [imagecodecs._fast_huffman_lut(lut) for lut in luts]
    assert len(imagecodecs._FAST_LUT_CACHE) == 64
    assert imagecodecs._fast_huffman_lut(luts[64]) is built[64]
    assert imagecodecs._fast_huffman_lut(luts[0]) is not built[0]


def test_bmp_roundtrip_exact():
    rng = np.random.default_rng(0)
    for w, h in [(21, 13), (16, 16), (3, 7)]:  # odd widths hit row padding
        img = _synth_image(rng, w, h)
        assert np.array_equal(decode_bmp(encode_bmp(img)), img)


# ------------------------------------------------- DecodeImage dispatch
def test_decode_image_mixed_corpus_strict():
    """A corpus rotating ppm/bmp/png/jpeg decodes fully in strict mode —
    no stub fallback anywhere."""
    tbl = synth_media_table(12, fmt="mixed")
    assert sorted(set(tbl["mime"].to_pylist())) == [
        "image/bmp", "image/jpeg", "image/png", "image/ppm"]
    out = DecodeImage(strict=True)(tbl)
    assert out.num_rows == 12
    assert len(out["features"][0]) == 8
    assert "payload" not in out.column_names


# ------------------------------------------------------- WAV / MFCC
def test_wav_roundtrip_exact():
    from deltaray.functions.avcodecs import decode_wav, encode_wav

    rng = np.random.default_rng(1)
    for ch in (1, 2):
        s = rng.integers(-32768, 32767, size=(1000, ch), dtype=np.int16)
        dec, rate = decode_wav(encode_wav(s.squeeze() if ch == 1 else s, 16000))
        assert rate == 16000
        assert np.array_equal(dec, s.reshape(1000, ch))
    with pytest.raises(ValueError, match="RIFF"):
        decode_wav(b"OggS definitely not wav")


def test_mfcc_discriminates_tones():
    """The mel/DCT front-end is a real spectral feature: distinct pure
    tones map to distinct, deterministic coefficient vectors."""
    from deltaray.functions.avcodecs import mfcc

    t = np.arange(16000) / 16000.0
    a = mfcc(np.sin(2 * np.pi * 440 * t), 16000)
    b = mfcc(np.sin(2 * np.pi * 2000 * t), 16000)
    assert a.shape[1] == 13 and a.shape[0] > 10
    assert np.abs(a.mean(0) - b.mean(0)).max() > 1.0
    assert np.array_equal(a, mfcc(np.sin(2 * np.pi * 440 * t), 16000))


def test_audio_features_real_wav_strict():
    from deltaray.functions.multimodal import (ExtractAudioFeatures,
                                               synth_audio_table)

    tbl = synth_audio_table(8)
    assert tbl["mime"][0].as_py() == "audio/wav"
    out = ExtractAudioFeatures(strict=True)(tbl)
    assert out.num_rows == 8 and len(out["mfcc"][0]) == 13
    assert out["mfcc"].equals(ExtractAudioFeatures(strict=True)(tbl)["mfcc"])
    fake = synth_audio_table(4, fmt="fake")
    with pytest.raises(NotImplementedError):
        ExtractAudioFeatures(strict=True)(fake)
    assert ExtractAudioFeatures()(fake).num_rows == 4  # stub fallback


# ------------------------------------------------------- AVI (MJPEG)
def test_avi_index_and_selective_decode():
    from deltaray.functions.avcodecs import (decode_avi_frame,
                                             index_avi_frames, synth_avi)

    avi = synth_avi(8, 32, 24, seed=5)
    idx = index_avi_frames(avi)
    assert len(idx) == 8
    img = decode_avi_frame(avi, *idx[3])
    assert img.shape == (24, 32, 3)
    with pytest.raises(ValueError, match="AVI"):
        index_avi_frames(b"RIFF\x04\x00\x00\x00WAVE")


def test_sample_video_frames_real_avi_strict():
    from deltaray.functions.multimodal import (SampleVideoFrames,
                                               synth_video_table)

    vids = synth_video_table(5, n_frames=6)
    out = SampleVideoFrames(strict=True, frames_per_video=4)(vids)
    assert out.num_rows == 20  # 4 sampled frames per video
    # sampled indices span the stream (first and last frame included)
    per_vid = sorted(set(out["frame_idx"].to_pylist()))
    assert per_vid[0] == 0 and per_vid[-1] == 5
    assert max(out["ts_ms"].to_pylist()) < 600  # inside duration
    # real decode: brightness varies across videos (seeded content)
    assert len(set(out["brightness"].to_pylist())) > 5


def test_decode_image_format_consistency():
    """The same pixels through every lossless container give identical
    features; JPEG (lossy) stays within a small tolerance."""
    img = _synth_image(np.random.default_rng(7), 40, 30)
    tbl = pa.table({
        "media_id": ["ppm", "bmp", "png", "jpeg"],
        "payload": pa.array(
            [encode_ppm(img), encode_bmp(img),
             encode_png(img, filter_type=4),
             encode_jpeg(img, quality=95)], pa.binary()),
        "mime": ["image/ppm", "image/bmp", "image/png", "image/jpeg"],
        "width": pa.array([40] * 4, pa.int32()),
        "height": pa.array([30] * 4, pa.int32()),
    })
    f = np.array(DecodeImage(strict=True)(tbl)["features"].to_pylist())
    assert np.array_equal(f[0], f[1])
    assert np.array_equal(f[0], f[2])
    assert np.abs(f[3] - f[0]).max() < 10


def test_avi_raw_roundtrip_exact():
    """Uncompressed-DIB AVI: every frame round-trips bit-exact (the
    lossless property the driver's video_frames hash oracle rests on),
    and the header probe distinguishes the two codecs."""
    from deltaray.functions.avcodecs import (avi_video_format,
                                             decode_avi_frame_raw,
                                             encode_avi_raw,
                                             index_avi_frames, synth_avi)

    w, h = 23, 17          # odd width exercises the 4-byte row padding
    frames = [((3 * np.arange(w)[None, :, None]
                + 5 * np.arange(h)[:, None, None]
                + 7 * np.arange(3)[None, None, :] + 11 * f) % 256)
              .astype(np.uint8) for f in range(5)]
    data = encode_avi_raw(frames, fps=10)
    assert avi_video_format(data) == ("DIB", w, h)
    idx = index_avi_frames(data)
    assert len(idx) == 5
    for f, (off, sz) in enumerate(idx):
        assert np.array_equal(decode_avi_frame_raw(data, off, sz, w, h),
                              frames[f])
    assert avi_video_format(synth_avi(3, 24, 16, seed=1))[0] == "MJPG"


def test_det_synth_tables_match_formulas():
    """The det synth tables decode back to their integer formulas:
    image pixel sums, WAV sample sums, and DIB frame sums all equal the
    closed forms the SQL oracles restate."""
    from deltaray.functions.avcodecs import decode_wav
    from deltaray.functions.multimodal import (DecodeImage,
                                               synth_audio_table_det,
                                               synth_media_table_det,
                                               synth_video_table_det)

    med = synth_media_table_det(8)
    stats = DecodeImage(strict=True, emit="pixel_stats")(med)
    for i in range(8):
        w = 16 + (i * 7) % 48
        h = 16 + (i * 11) % 48
        assert stats["width"][i].as_py() == w
        assert stats["height"][i].as_py() == h
        if i % 4 != 3:  # lossless rows: exact closed form
            x = np.arange(w)[None, :, None]
            y = np.arange(h)[:, None, None]
            c = np.arange(3)[None, None, :]
            want = int(((3 * x + 5 * y + 7 * c + 11 * i) % 256).sum())
            assert stats["pix_sum"][i].as_py() == want, i

    aud = synth_audio_table_det(6)
    for i in range(6):
        samples, rate = decode_wav(aud["payload"][i].as_py())
        k = 3 + i % 7
        ns = rate * (200 + (i * 37) % 500) // 1000
        t = np.arange(ns, dtype=np.int64)
        want = int(((t * k + i) % 65536 - 32768).sum())
        assert samples.shape[0] == ns
        assert int(samples.astype(np.int64).sum()) == want, i

    from deltaray.functions.avcodecs import (decode_avi_frame_raw,
                                             index_avi_frames)
    vid = synth_video_table_det(3, n_frames=4, w=20, h=12)
    for i in range(3):
        raw = vid["payload"][i].as_py()
        for f, (off, sz) in enumerate(index_avi_frames(raw)):
            img = decode_avi_frame_raw(raw, off, sz, 20, 12)
            x = np.arange(20)[None, :, None]
            y = np.arange(12)[:, None, None]
            c = np.arange(3)[None, None, :]
            want = ((3 * x + 5 * y + 7 * c + 11 * f + 13 * i) % 256)
            assert np.array_equal(img, want.astype(np.uint8)), (i, f)


def test_sample_video_frames_mixed_codecs(ray_session):
    """One batch holding BOTH AVI codecs: the sampler probes each
    payload's header and dispatches raw-DIB vs MJPEG decode; pix_sum
    emits for every row."""
    import ray.data

    from deltaray.functions.multimodal import (sample_video_frames,
                                               synth_video_table,
                                               synth_video_table_det)

    det = synth_video_table_det(2)
    mj = synth_video_table(2, seed=5)
    mj = mj.set_column(0, "media_id",
                       pa.array(["mjp0", "mjp1"], pa.string()))
    tbl = pa.concat_tables([det, mj], promote_options="default")
    out = sample_video_frames(ray.data.from_arrow(tbl), batch_size=4,
                              strict=True, emit_pixel_sum=True) \
        .to_pandas()
    assert len(out) == 4 * 4          # 4 videos x 4 sampled frames
    assert out.pix_sum.notna().all()
    assert (out.sort_values(["media_id", "frame_idx"])
            .groupby("media_id").frame_idx.apply(list)
            .map(lambda v: v == [0, 1, 3, 5])).all()


def test_pcm_stats_mode_asserts_finite_mfcc(ray_session):
    """pcm_stats mode still runs the MFCC front-end per file and emits
    integer-exact decode stats."""
    import ray.data

    from deltaray.functions.multimodal import (extract_audio_features,
                                               synth_audio_table_det)

    out = extract_audio_features(
        ray.data.from_arrow(synth_audio_table_det(5)), batch_size=4,
        strict=True, emit="pcm_stats").to_pandas()
    assert list(out.columns) == ["media_id", "sample_rate", "n_samples",
                                 "pcm_sum"]
    assert (out.n_samples > 0).all()
