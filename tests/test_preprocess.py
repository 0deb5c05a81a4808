import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetsent import preprocess
from tweetsent.preprocess import (
    DEFAULT_NEGATION_WORDS,
    PreprocessConfig,
    Token,
    TokenKind,
    basic_preprocess,
    handle_negation,
    join_tokens,
    load_lemma_table,
    load_wordlist,
    semantic_preprocess,
    tokenize,
)

CFG = PreprocessConfig()


def surfaces(tokens):
    return [t.surface for t in tokens]


def kinds(tokens):
    return [t.kind for t in tokens]


def basic(text, config=CFG):
    return basic_preprocess(tokenize(text), config)


def semantic(text, config=CFG):
    return semantic_preprocess(basic(text, config), config)


class TestTokenize:
    def test_words_and_punctuation(self):
        tokens = tokenize("Hola, mundo!")
        assert surfaces(tokens) == ["Hola", ",", "mundo", "!"]
        assert kinds(tokens) == [
            TokenKind.WORD,
            TokenKind.PUNCTUATION,
            TokenKind.WORD,
            TokenKind.PUNCTUATION,
        ]

    def test_handle(self):
        tokens = tokenize("@maria_22 hola")
        assert tokens[0] == Token("@maria_22", TokenKind.HANDLE)

    def test_url(self):
        tokens = tokenize("mira https://t.co/abc123 ya")
        assert tokens[1].kind is TokenKind.URL
        assert tokens[1].surface == "https://t.co/abc123"

    def test_www_url(self):
        assert tokenize("www.ejemplo.com/x")[0].kind is TokenKind.URL

    def test_email(self):
        tokens = tokenize("escribe a ana.perez+x@mail.example.org hoy")
        mails = [t for t in tokens if t.kind is TokenKind.EMAIL]
        assert [t.surface for t in mails] == ["ana.perez+x@mail.example.org"]

    def test_number(self):
        tokens = tokenize("van 3 goles")
        assert tokens[1] == Token("3", TokenKind.NUMBER)

    def test_hashtag_is_emoji_or_other(self):
        tokens = tokenize("#FelizLunes a todos")
        assert tokens[0] == Token("#FelizLunes", TokenKind.EMOJI_OR_OTHER)

    def test_emoji_run_is_single_token(self):
        tokens = tokenize("bien 😀😀🎉 ya")
        others = [t for t in tokens if t.kind is TokenKind.EMOJI_OR_OTHER]
        assert [t.surface for t in others] == ["😀😀🎉"]

    def test_accented_words_stay_whole(self):
        assert surfaces(tokenize("canción año"))[0] == "canción"

    def test_punctuation_chars_are_individual_tokens(self):
        assert surfaces(tokenize("si!!...")) == ["si", "!", "!", ".", ".", "."]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize(" \t ") == []


class TestBasicPreprocess:
    def test_handle_replaced(self):
        tokens = basic("@maria hola")
        assert tokens[0] == Token("@USER", TokenKind.HANDLE)

    def test_url_replaced(self):
        tokens = basic("ver https://x.co/a")
        assert tokens[1] == Token("URL", TokenKind.URL)

    def test_email_replaced(self):
        tokens = basic("a b@c.org")
        assert tokens[1] == Token("EMAIL", TokenKind.EMAIL)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("el gato URL0", [("el", "word"), ("gato", "word"), ("URL", "url"), ("0", "number")]),
            ("URL_x", [("URL", "url"), ("_", "punctuation"), ("x", "word")]),
            ("EMAIL9", [("EMAIL", "email"), ("9", "number")]),
            ("URLs EMAILES", [("URLs", "word"), ("EMAILES", "word")]),
            ("URL0@x.com URL.a@b.com", [("URL0@x.com", "email"), ("URL.a@b.com", "email")]),
        ],
    )
    def test_placeholder_literal_is_a_token_unless_part_of_a_word_or_address(self, text, expected):
        tokens = tokenize(text)
        assert [(t.surface, t.kind.value) for t in tokens] == expected
        assert tokenize(join_tokens(basic(text))) == basic(text)

    def test_repeats_collapsed_to_cap(self):
        assert surfaces(basic("holaaaaa"))[0] == "holaa"

    def test_repeat_cap_configurable(self):
        cfg = PreprocessConfig(repeat_cap=1)
        assert surfaces(basic("holaaaaa", cfg))[0] == "hola"

    def test_runs_at_cap_untouched(self):
        assert surfaces(basic("holaa"))[0] == "holaa"

    def test_emoji_and_hashtags_untouched(self):
        tokens = basic("#Viernes 😀😀😀")
        assert surfaces(tokens) == ["#Viernes", "😀😀😀"]

    def test_idempotent(self):
        tokens = basic("@maria holaaaa ver https://x.co/a 😀 #tag b@c.org nooo!!")
        again = basic_preprocess(tokens, CFG)
        assert again == tokens

    def test_placeholders_survive_retokenization(self):
        text = join_tokens(basic("@maria ve https://x.co/a y b@c.org"))
        assert kinds(basic(text)) == kinds(tokenize(text))
        assert surfaces(basic(text)) == ["@USER", "ve", "URL", "y", "EMAIL"]


class TestNegation:
    def test_scope_three_words(self):
        tokens = handle_negation(tokenize("no me gusta nada de esto"), CFG)
        # "nada" is itself a cue but is prefixed first, so it does not re-trigger.
        assert surfaces(tokens) == ["no", "NOT_me", "NOT_gusta", "NOT_nada", "de", "esto"]

    def test_cue_itself_unprefixed(self):
        tokens = handle_negation(tokenize("no vino"), CFG)
        assert surfaces(tokens) == ["no", "NOT_vino"]

    def test_stops_at_punctuation(self):
        tokens = handle_negation(tokenize("no vino , pero llamó"), CFG)
        assert surfaces(tokens) == ["no", "NOT_vino", ",", "pero", "llamó"]

    def test_stops_at_non_word_kinds(self):
        tokens = handle_negation(tokenize("no mires https://x.co/a nunca digas eso"), CFG)
        assert surfaces(tokens) == [
            "no", "NOT_mires", "https://x.co/a", "nunca", "NOT_digas", "NOT_eso",
        ]

    def test_scope_configurable(self):
        cfg = PreprocessConfig(negation_scope=1)
        tokens = handle_negation(tokenize("no me gusta"), cfg)
        assert surfaces(tokens) == ["no", "NOT_me", "gusta"]

    def test_scope_zero_disables(self):
        cfg = PreprocessConfig(negation_scope=0)
        tokens = handle_negation(tokenize("no me gusta"), cfg)
        assert surfaces(tokens) == ["no", "me", "gusta"]

    def test_cue_matching_is_case_insensitive(self):
        tokens = handle_negation(tokenize("Nunca más"), CFG)
        assert surfaces(tokens) == ["Nunca", "NOT_más"]

    def test_token_count_preserved(self):
        text = "no sé si nunca jamás podré sin ti nada"
        assert len(handle_negation(tokenize(text), CFG)) == len(tokenize(text))

    def test_default_cues_present(self):
        for cue in ("no", "ni", "nunca", "jamás", "tampoco", "nadie", "nada", "sin"):
            assert cue in DEFAULT_NEGATION_WORDS


class TestSemanticPreprocess:
    def test_lowercases_words(self):
        assert surfaces(semantic("Hola Mundo")) == ["hola", "mundo"]

    def test_lemma_lookup_after_lowercasing(self):
        cfg = PreprocessConfig(lemma_table={"corriendo": "correr"})
        assert surfaces(semantic("Corriendo", cfg)) == ["correr"]

    def test_punctuation_dropped(self):
        assert surfaces(semantic("hola , mundo !")) == ["hola", "mundo"]

    def test_numbers_dropped(self):
        assert surfaces(semantic("van 3 goles")) == ["van", "goles"]

    def test_stopwords_dropped(self):
        cfg = PreprocessConfig(stopwords=frozenset({"de", "la"}))
        assert surfaces(semantic("la casa de madera", cfg)) == ["casa", "madera"]

    def test_negated_stopword_survives(self):
        cfg = PreprocessConfig(stopwords=frozenset({"me", "gusta"}))
        tokens = semantic("no me gusta", cfg)
        assert surfaces(tokens) == ["no", "NOT_me", "NOT_gusta"]

    def test_negation_cue_can_be_stopword(self):
        cfg = PreprocessConfig(stopwords=frozenset({"no"}))
        assert surfaces(semantic("no vino", cfg)) == ["NOT_vino"]

    def test_placeholders_survive(self):
        assert surfaces(semantic("@maria mira https://x.co/a b@c.org")) == [
            "@USER", "mira", "URL", "EMAIL",
        ]

    def test_hashtags_and_emoji_survive_unchanged(self):
        assert surfaces(semantic("#FelizLunes 😀😀")) == ["#FelizLunes", "😀😀"]

    def test_negation_applies_to_lemma(self):
        cfg = PreprocessConfig(lemma_table={"gusta": "gustar"})
        assert surfaces(semantic("no gusta", cfg)) == ["no", "NOT_gustar"]


class TestResourceFiles:
    def test_load_wordlist(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("de\nla\n\n  en \n", encoding="utf-8")
        assert load_wordlist(path) == frozenset({"de", "la", "en"})

    def test_load_lemma_table(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text("corriendo\tcorrer\ncasas\tcasa\n", encoding="utf-8")
        table = load_lemma_table(path)
        assert table == {"corriendo": "correr", "casas": "casa"}

    def test_lemma_table_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text("corriendo\tcorrer\nbroken-row\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"lemmas\.tsv:2"):
            load_lemma_table(path)


class TestJoinTokens:
    def test_space_joined(self):
        assert join_tokens(tokenize("hola , mundo")) == "hola , mundo"


# Arbitrary Unicode without lone surrogates, salted with the pieces the
# tokenizer and the repeat cap treat specially.
PIECES = [
    "😀", "👍🏽", "🇪🇸", "e\u0301", "\u0301", "ñ", "holaaaa", "NOOO", "ß", "İ", "ǅ", "@maria", "#viernes",
    "https://x.co/a", "b@c.org", "URL", "EMAIL", "@USER", "123", " ", "!!", "no", "nunca", "ni",
]
unicode_texts = st.lists(
    st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8), st.sampled_from(PIECES)), max_size=10
).map("".join)


class TestPreprocessProperties:
    @settings(max_examples=500, deadline=None)
    @given(unicode_texts, st.integers(1, 4))
    def test_basic_preprocess_is_idempotent(self, text, repeat_cap):
        config = PreprocessConfig(repeat_cap=repeat_cap)
        once = basic(text, config)
        assert basic_preprocess(once, config) == once

    @settings(max_examples=500, deadline=None)
    @given(unicode_texts, st.integers(0, 6))
    def test_negation_keeps_the_token_count(self, text, scope):
        tokens = tokenize(text)
        assert len(handle_negation(tokens, PreprocessConfig(negation_scope=scope))) == len(tokens)


#: Every character ``str.isspace`` accepts, among them U+001C-U+001F, U+0085,
#: U+00A0, U+2028 and U+3000.
WHITESPACE = [chr(code) for code in range(0x110000) if chr(code).isspace()]
# Arbitrary Unicode around whitespace of every kind and the placeholder
# literals, which the tokenizer matches by lookahead.
chunked_texts = st.lists(
    st.one_of(
        st.text(max_size=8),
        st.sampled_from(WHITESPACE),
        st.sampled_from(PIECES + ["URL0", "URL0@x.com", "EMAIL9", "URLs", "www.x.es", "a@b", "x.com"]),
    ),
    max_size=12,
).map("".join)


class TestMemos:
    """The memoized steps give what the plain steps give, whatever the memos hold."""

    def test_the_whitespace_list_is_complete(self):
        assert {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", " ", "　", " ", "\t"} <= set(WHITESPACE)
        assert "".join(WHITESPACE).split() == []

    @settings(max_examples=500, deadline=None)
    @given(chunked_texts)
    def test_tokenize_is_the_concatenation_over_whitespace_chunks(self, text):
        expected = preprocess._scan(text)
        assert tokenize(text) == expected
        assert [token for chunk in text.split() for token in tokenize(chunk)] == expected

    def test_tokenize_returns_a_fresh_list(self):
        first = tokenize("hola mundo")
        first.append(Token("x", TokenKind.WORD))
        second = tokenize("hola mundo")
        assert surfaces(second) == ["hola", "mundo"] and second is not first

    def test_the_repeat_cap_is_part_of_the_memo_key(self):
        assert surfaces(basic("holaaaa", PreprocessConfig(repeat_cap=2))) == ["holaa"]
        assert surfaces(basic("holaaaa", PreprocessConfig(repeat_cap=3))) == ["holaaa"]
        assert surfaces(basic("holaaaa", PreprocessConfig(repeat_cap=2))) == ["holaa"]

    @settings(max_examples=200, deadline=None)
    @given(chunked_texts, chunked_texts, st.integers(1, 3))
    def test_cold_and_warm_memos_agree(self, text, other, repeat_cap):
        config = PreprocessConfig(repeat_cap=repeat_cap, lemma_table={"gato": "gat"})
        clear_memos()
        cold = semantic(text, config), basic(text, config), tokenize(text)
        clear_memos()
        semantic(other, PreprocessConfig(repeat_cap=repeat_cap % 3 + 1))
        assert (semantic(text, config), basic(text, config), tokenize(text)) == cold


def clear_memos():
    for memo in (preprocess._chunk_tokens, preprocess._collapse_repeats, preprocess._word):
        memo.cache_clear()
