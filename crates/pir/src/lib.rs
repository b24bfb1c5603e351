//! Single-server private information retrieval (SimplePIR) for
//! Tiptoe's URL service (paper §5, Appendix C).
//!
//! The client fetches one *record* (a compressed batch of URLs, up to
//! ~40 KiB) from a server-held array without revealing which one. The
//! construction is SimplePIR over the inner LWE scheme of
//! [`tiptoe_lwe`], with the client-side hint storage eliminated by the
//! [`tiptoe_underhood`] token machinery:
//!
//! - The database is a matrix with **one column per record** and one
//!   row per packed `Z_p` element; Appendix C "unbalances" the matrix
//!   to be much wider than tall, which is exactly this layout once
//!   records are batched to ≤ 40 KiB.
//! - The query is the encryption of a unit vector selecting the target
//!   column. The server's answer is the (encrypted) selected column.
//! - Because the selected column entries are single database entries
//!   (never sums), decryption is exact for any plaintext modulus `p`,
//!   including the non-power-of-two values of Table 11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod packing;

use rand::Rng;
use tiptoe_lwe::{scheme, LweCiphertext, LweParams, MatrixA, QueryPad};
use tiptoe_math::matrix::Mat;
use tiptoe_math::wire::WireError;
use tiptoe_underhood::{
    ClientKey, DecodedToken, EncryptedSecret, ExpandedSecret, QueryToken, Underhood,
};

pub use packing::BitPacker;

/// A PIR database: fixed-size records packed into the columns of a
/// `Z_p` matrix.
pub struct PirDatabase {
    db: Mat<u32>,
    params: LweParams,
    packer: BitPacker,
    record_bytes: usize,
}

impl PirDatabase {
    /// Packs `records` (padded to the longest record) into a PIR
    /// database, choosing the plaintext modulus from the number of
    /// records via the Table 11 rule.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty or all records are empty.
    pub fn build(records: &[Vec<u8>]) -> Self {
        Self::build_with_params(records, LweParams::url_for_upload(records.len().max(1 << 10)))
    }

    /// Packs records under explicit LWE parameters (tests use small,
    /// fast configurations).
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty or all records are empty.
    pub fn build_with_params(records: &[Vec<u8>], params: LweParams) -> Self {
        assert!(!records.is_empty(), "PIR database must have at least one record");
        let record_bytes = records.iter().map(Vec::len).max().expect("nonempty");
        assert!(record_bytes > 0, "records must not all be empty");
        let packer = BitPacker::new(params.p);
        let rows = packer.entries_for(record_bytes);
        let mut db = Mat::zeros(rows, records.len());
        let mut column = Vec::new();
        for (c, record) in records.iter().enumerate() {
            column.clear();
            packer.pack_into(record, record_bytes, &mut column);
            debug_assert_eq!(column.len(), rows);
            for (r, &e) in column.iter().enumerate() {
                db.set(r, c, e);
            }
        }
        Self { db, params, packer, record_bytes }
    }

    /// Number of records (the upload dimension `m`).
    pub fn num_records(&self) -> usize {
        self.db.cols()
    }

    /// Padded record size in bytes.
    pub fn record_bytes(&self) -> usize {
        self.record_bytes
    }

    /// Number of matrix rows (the download dimension `ℓ`).
    pub fn rows(&self) -> usize {
        self.db.rows()
    }

    /// The LWE parameters in use.
    pub fn params(&self) -> &LweParams {
        &self.params
    }

    /// The raw packed matrix (for hint preprocessing).
    pub fn matrix(&self) -> &Mat<u32> {
        &self.db
    }

    /// Server-side bytes held by this database.
    pub fn storage_bytes(&self) -> u64 {
        (self.db.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// The PIR server: the packed database, its SimplePIR hint, and the
/// underhood-preprocessed hint for token generation.
pub struct PirServer {
    db: PirDatabase,
    a: MatrixA,
    uh: Underhood,
    hint: Mat<u32>,
    server_hint: tiptoe_underhood::ServerHint,
}

impl PirServer {
    /// Builds the server state: computes `hint = DB·A` and its
    /// NTT-ready limb decomposition (both are one-time, per-corpus
    /// batch work) using one preprocessing thread per core.
    pub fn new(db: PirDatabase, a_seed: u64, uh: Underhood) -> Self {
        Self::with_threads(db, a_seed, uh, 0)
    }

    /// [`PirServer::new`] with an explicit preprocessing thread count
    /// (`0` = one per core). The hint is bit-identical regardless of
    /// the thread count.
    pub fn with_threads(db: PirDatabase, a_seed: u64, uh: Underhood, num_threads: usize) -> Self {
        let a = MatrixA::new(a_seed, db.num_records(), db.params().n);
        let hint =
            scheme::preproc::<u32>(db.matrix(), &a.row_range(0, db.num_records()), num_threads);
        let server_hint = uh.preprocess_hint(&hint);
        Self { db, a, uh, hint, server_hint }
    }

    /// The public matrix descriptor clients encrypt against.
    pub fn public_matrix(&self) -> MatrixA {
        self.a
    }

    /// The database metadata clients need.
    pub fn database(&self) -> &PirDatabase {
        &self.db
    }

    /// The composed-scheme parameters.
    pub fn underhood(&self) -> &Underhood {
        &self.uh
    }

    /// Generates a (single-use) query token for a client's encrypted
    /// secret — the offline phase of §6.3.
    pub fn generate_token(&self, es: &EncryptedSecret) -> QueryToken {
        let _span = tiptoe_obs::span("pir.token_gen");
        self.uh.generate_token(&self.server_hint, es)
    }

    /// Token generation over pre-expanded secrets (shared with other
    /// services holding the same outer parameters) for `B` clients in
    /// one pass over the hint polynomials, on `num_threads` threads;
    /// each token is bit-identical to [`PirServer::generate_token`]
    /// for that client. The serving plane's token lane flushes through
    /// this kernel, and a direct fetch is its `B = 1` case.
    pub fn generate_token_expanded_many(
        &self,
        secrets: &[&ExpandedSecret],
        num_threads: usize,
    ) -> Vec<QueryToken> {
        let mut span = tiptoe_obs::span("pir.token_gen");
        span.attr_u64("batch", secrets.len() as u64);
        self.uh.generate_token_expanded_many(&self.server_hint, secrets, num_threads)
    }

    /// Answers an online query: `answer = DB · ct`
    /// (touches every record, so the access pattern is
    /// query-independent).
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from the number of
    /// records.
    pub fn answer(&self, ct: &LweCiphertext<u32>) -> Vec<u32> {
        self.answer_many(std::slice::from_ref(ct), 1).pop().expect("one answer per ciphertext")
    }

    /// Answers a batch of online queries in one pass over the
    /// database: a record is read from DRAM once for all `B`
    /// ciphertexts. Each answer is bit-identical to
    /// [`PirServer::answer`].
    ///
    /// # Panics
    ///
    /// Panics if any ciphertext dimension differs from the number of
    /// records.
    pub fn answer_many(&self, cts: &[LweCiphertext<u32>], num_threads: usize) -> Vec<Vec<u32>> {
        let mut span = tiptoe_obs::span("pir.answer");
        span.attr_u64("rows", self.db.rows() as u64);
        span.attr_u64("cols", self.db.num_records() as u64);
        span.attr_u64("batch", cts.len() as u64);
        let cts: Vec<&[u32]> = cts.iter().map(|ct| ct.c.as_slice()).collect();
        scheme::apply(self.db.matrix(), &cts, num_threads)
    }

    /// Server-side bytes held: the database plus the NTT-ready hint
    /// polynomials.
    pub fn storage_bytes(&self) -> u64 {
        self.db.storage_bytes() + self.server_hint.byte_len()
    }

    /// The raw hint (used by tests and by clients that opt into
    /// hint download instead of tokens — the plain-SimplePIR mode the
    /// paper compares against in §6.2).
    pub fn raw_hint(&self) -> &Mat<u32> {
        &self.hint
    }
}

/// Client-side PIR operations.
pub struct PirClient<'a> {
    uh: &'a Underhood,
    key: &'a ClientKey,
}

impl<'a> PirClient<'a> {
    /// Creates a client view over a composite key.
    pub fn new(uh: &'a Underhood, key: &'a ClientKey) -> Self {
        Self { uh, key }
    }

    /// The query-independent part of a query (§6.3), computed ahead of
    /// time: [`QueryPad::seal_unit`] at the record's index makes it the
    /// query for that record.
    pub fn query_offline<R: Rng + ?Sized>(&self, a: &MatrixA, rng: &mut R) -> QueryPad<u32> {
        self.uh.encrypt_offline::<u32, _>(self.key, a, rng)
    }

    /// Encrypts a query for record `index`: the
    /// [`PirClient::query_offline`] pad sealed at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `num_records` is not the
    /// number of rows of `a`.
    pub fn query<R: Rng + ?Sized>(
        &self,
        a: &MatrixA,
        num_records: usize,
        index: usize,
        rng: &mut R,
    ) -> LweCiphertext<u32> {
        assert!(index < num_records, "record index out of range");
        assert_eq!(num_records, a.rows(), "plaintext length must equal upload dimension");
        self.query_offline(a, rng).seal_unit(index)
    }

    /// Decodes a token received from the server.
    pub fn decode_token(&self, token: &QueryToken) -> DecodedToken<u32> {
        self.uh.decode_token::<u32>(self.key, token)
    }

    /// Recovers the record bytes from the decrypted answer, or a
    /// [`WireError`] if the answer carries too few entries for the
    /// database's record length (a truncated or hostile response must
    /// not panic the client).
    pub fn recover(
        &self,
        db_meta: &PirDatabase,
        token: &mut DecodedToken<u32>,
        answer: &[u32],
    ) -> Result<Vec<u8>, WireError> {
        if answer.len() != token.rows() {
            return Err(WireError::Invalid("PIR answer length differs from the token rows"));
        }
        let entries = self.uh.decrypt(token, answer);
        db_meta
            .packer
            .try_unpack(
                &entries.iter().map(|&e| e as u32).collect::<Vec<_>>(),
                db_meta.record_bytes,
            )
            .ok_or(WireError::Invalid("PIR answer too short for the record length"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_math::rng::seeded_rng;
    use tiptoe_rlwe::RlweParams;

    fn test_underhood() -> Underhood {
        let lwe = LweParams::insecure_test(32, 991, 6.4);
        let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
        Underhood::with_outer(lwe, rlwe, 44)
    }

    fn records(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen::<u8>()).collect())
            .collect()
    }

    #[test]
    fn full_pir_roundtrip_with_token() {
        let uh = test_underhood();
        let mut rng = seeded_rng(1);
        let recs = records(24, 100, 2);
        let db = PirDatabase::build_with_params(&recs, *uh.lwe());
        let server = PirServer::new(db, 42, uh.clone());

        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let token = server.generate_token(&es);

        let client = PirClient::new(&uh, &key);
        let mut decoded = client.decode_token(&token);
        let target = 17;
        let ct = client.query(&server.public_matrix(), server.database().num_records(), target, &mut rng);
        let answer = server.answer(&ct);
        let got = client.recover(server.database(), &mut decoded, &answer).expect("full answer");
        assert_eq!(got, recs[target]);
    }

    #[test]
    fn batched_answers_are_bit_identical() {
        let uh = test_underhood();
        let mut rng = seeded_rng(7);
        let recs = records(24, 60, 8);
        let db = PirDatabase::build_with_params(&recs, *uh.lwe());
        let server = PirServer::with_threads(db, 44, uh.clone(), 3);
        // The parallel-preprocessed hint matches the scalar one.
        let db2 = PirDatabase::build_with_params(&recs, *uh.lwe());
        let scalar = PirServer::new(db2, 44, uh.clone());
        assert_eq!(server.raw_hint().data(), scalar.raw_hint().data());

        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let client = PirClient::new(&uh, &key);
        let n_records = server.database().num_records();
        let cts: Vec<_> = [3usize, 11, 19]
            .iter()
            .map(|&t| client.query(&server.public_matrix(), n_records, t, &mut rng))
            .collect();
        for threads in [1, 2, 4] {
            let batched = server.answer_many(&cts, threads);
            for (ct, got) in cts.iter().zip(batched.iter()) {
                assert_eq!(got, &server.answer(ct), "threads={threads}");
            }
        }
    }

    #[test]
    fn retrieves_every_record_correctly() {
        let uh = test_underhood();
        let mut rng = seeded_rng(3);
        let recs = records(8, 40, 4);
        let db = PirDatabase::build_with_params(&recs, *uh.lwe());
        let server = PirServer::new(db, 43, uh.clone());
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let client = PirClient::new(&uh, &key);
        for target in 0..recs.len() {
            let token = server.generate_token(&es);
            let mut decoded = client.decode_token(&token);
            let ct = client.query(&server.public_matrix(), recs.len(), target, &mut rng);
            let answer = server.answer(&ct);
            assert_eq!(
                client.recover(server.database(), &mut decoded, &answer).expect("full answer"),
                recs[target]
            );
        }
    }

    #[test]
    fn variable_length_records_are_padded() {
        let uh = test_underhood();
        let mut rng = seeded_rng(5);
        let mut recs = records(6, 30, 6);
        recs[2] = vec![7u8; 11]; // shorter record
        let db = PirDatabase::build_with_params(&recs, *uh.lwe());
        assert_eq!(db.record_bytes(), 30);
        let server = PirServer::new(db, 44, uh.clone());
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let client = PirClient::new(&uh, &key);
        let token = server.generate_token(&es);
        let mut decoded = client.decode_token(&token);
        let ct = client.query(&server.public_matrix(), recs.len(), 2, &mut rng);
        let answer = server.answer(&ct);
        let got = client.recover(server.database(), &mut decoded, &answer).expect("full answer");
        assert_eq!(&got[..11], &recs[2][..]);
        assert!(got[11..].iter().all(|&b| b == 0), "padding must be zeros");
    }

    #[test]
    fn queries_have_fixed_size_independent_of_index() {
        let uh = test_underhood();
        let mut rng = seeded_rng(7);
        let recs = records(16, 20, 8);
        let db = PirDatabase::build_with_params(&recs, *uh.lwe());
        let server = PirServer::new(db, 45, uh.clone());
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let client = PirClient::new(&uh, &key);
        let sizes: Vec<u64> = (0..16)
            .map(|i| client.query(&server.public_matrix(), 16, i, &mut rng).byte_len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "query size must not depend on index");
    }

    #[test]
    fn deployed_parameters_hold_5632_url_hint_polynomials_over_two_chunks() {
        // `TiptoeConfig::text`: n = 1408, N = 2048, two limbs; records
        // of 2,400 bytes are 2,134 rows, two chunks like the 4,096-doc
        // deployment's URL batches.
        let uh = Underhood::new(LweParams::url(991));
        let db = PirDatabase::build_with_params(&records(3, 2400, 11), *uh.lwe());
        assert_eq!(db.rows().div_ceil(2048), 2);
        let server = PirServer::new(db, 42, uh);
        let hint_bytes = server.storage_bytes() - server.database().storage_bytes();
        assert_eq!(hint_bytes, 5632 * 2048 * 8);
    }

    #[test]
    fn upload_dimension_matches_record_count() {
        let recs = records(12, 16, 9);
        let uh = test_underhood();
        let db = PirDatabase::build_with_params(&recs, *uh.lwe());
        assert_eq!(db.num_records(), 12);
        // 991 -> 9 bits per entry; 16 bytes = 128 bits -> 15 entries.
        assert_eq!(db.rows(), 15);
    }
}
