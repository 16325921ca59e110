//! Compressed-sparse-row kernels for 1×1 convolutions and FC layers.

use qsdnn_nn::ConvParams;
use qsdnn_tensor::{DataLayout, Shape, Tensor};

/// A CSR matrix built from a dense row-major weight matrix, keeping only
/// non-zero entries. This is the in-memory compressed model representation
/// of the paper's *Sparse* library.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Compresses a dense `rows×cols` row-major matrix.
    pub fn from_dense(rows: usize, cols: usize, dense: &[f32]) -> Self {
        assert!(dense.len() >= rows * cols, "dense matrix too short");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = dense[r * cols + c];
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored fraction of the dense size.
    pub fn density(&self) -> f32 {
        if self.rows * self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f32 / (self.rows * self.cols) as f32
    }

    /// `y = M · x` (sparse matrix, dense vector).
    pub fn spmv(&self, x: &[f32], y: &mut [f32]) {
        assert!(x.len() >= self.cols, "x too short");
        assert!(y.len() >= self.rows, "y too short");
        for (r, out) in y.iter_mut().enumerate().take(self.rows) {
            let mut acc = 0.0f32;
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[i] * x[self.col_idx[i]];
            }
            *out = acc;
        }
    }

    /// `C = M · B` for dense row-major `B` (`cols×n`) into `C` (`rows×n`).
    pub fn spmm(&self, b: &[f32], n: usize, c: &mut [f32]) {
        assert!(b.len() >= self.cols * n, "b too short");
        assert!(c.len() >= self.rows * n, "c too short");
        c[..self.rows * n].fill(0.0);
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let v = self.values[i];
                let brow = &b[self.col_idx[i] * n..self.col_idx[i] * n + n];
                let crow = &mut c[r * n..r * n + n];
                for j in 0..n {
                    crow[j] += v * brow[j];
                }
            }
        }
    }
}

/// Sparse 1×1 convolution: CSR `[OC×IC]` times the NCHW channel-major plane
/// matrix `[IC × OH*OW]`. A strided kernel first gathers every stride-th
/// pixel of each input plane into that matrix. NCHW in/out.
///
/// # Panics
///
/// Panics if the kernel is not 1×1, the padding is not zero or `input` is
/// not NCHW.
pub fn conv1x1_sparse(
    input: &Tensor,
    w: &[f32],
    bias: &[f32],
    p: &ConvParams,
    out_shape: Shape,
) -> Tensor {
    assert_eq!(p.kernel, (1, 1), "sparse convolution covers 1x1 kernels");
    assert_eq!(p.pad, (0, 0), "sparse convolution requires zero padding");
    assert_eq!(
        input.layout(),
        DataLayout::Nchw,
        "sparse convolution requires NCHW input"
    );
    let in_s = input.shape();
    let in_plane = in_s.h * in_s.w;
    let plane = out_shape.h * out_shape.w;
    let (sh, sw) = p.stride;
    let csr = CsrMatrix::from_dense(out_shape.c, in_s.c, w);
    let mut out = Tensor::zeros(out_shape, DataLayout::Nchw);
    let mut gathered = Vec::new();
    for n in 0..out_shape.n {
        let x = &input.as_slice()[n * in_s.c * in_plane..(n + 1) * in_s.c * in_plane];
        let x = if p.stride == (1, 1) {
            x
        } else {
            gathered.clear();
            for src in x.chunks_exact(in_plane) {
                for oy in 0..out_shape.h {
                    let row = &src[oy * sh * in_s.w..];
                    gathered.extend((0..out_shape.w).map(|ox| row[ox * sw]));
                }
            }
            &gathered[..]
        };
        let dst = &mut out.as_mut_slice()[n * out_shape.c * plane..(n + 1) * out_shape.c * plane];
        csr.spmm(x, plane, dst);
        if !bias.is_empty() {
            for ch in 0..out_shape.c {
                for i in 0..plane {
                    dst[ch * plane + i] += bias[ch];
                }
            }
        }
    }
    out
}

/// Sparse fully-connected layer: CSR `[OUT×IN]` GEMV per batch element.
/// NCHW (vector) in/out.
pub fn fc_sparse(input: &Tensor, w: &[f32], bias: &[f32], out_shape: Shape) -> Tensor {
    let in_s = input.shape();
    let in_features = in_s.volume() / in_s.n.max(1);
    let out_features = out_shape.c;
    let csr = CsrMatrix::from_dense(out_features, in_features, w);
    let x_nchw = input.to_layout(DataLayout::Nchw);
    let mut out = Tensor::zeros(out_shape, DataLayout::Nchw);
    for n in 0..in_s.n {
        let x = &x_nchw.as_slice()[n * in_features..(n + 1) * in_features];
        let y = &mut out.as_mut_slice()[n * out_features..(n + 1) * out_features];
        csr.spmv(x, y);
        if !bias.is_empty() {
            for (yi, b) in y.iter_mut().zip(bias) {
                *yi += b;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn csr_roundtrip_density() {
        let dense = vec![1.0, 0.0, 0.0, 2.0, 0.0, 3.0];
        let csr = CsrMatrix::from_dense(2, 3, &dense);
        assert_eq!(csr.nnz(), 3);
        assert!((csr.density() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn spmv_matches_dense() {
        let dense = vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0];
        let csr = CsrMatrix::from_dense(2, 3, &dense);
        let x = [1.0, 10.0, 100.0];
        let mut y = [0.0; 2];
        csr.spmv(&x, &mut y);
        assert_eq!(y, [201.0, 30.0]);
    }

    #[test]
    fn sparse_conv_matches_dense_direct() {
        use crate::kernels::conv_direct::conv_direct_vanilla;
        let in_s = Shape::new(1, 8, 5, 5);
        let input = Tensor::random(in_s, DataLayout::Nchw, 3);
        let p = ConvParams::square(6, 1, 1, 0).with_density(0.3);
        let os = Shape::new(1, 6, 5, 5);
        // Weights with actual zeros.
        let w: Vec<f32> = (0..48)
            .map(|i| {
                if i % 3 == 0 {
                    (i % 7) as f32 * 0.2 - 0.5
                } else {
                    0.0
                }
            })
            .collect();
        let bias = vec![0.1; 6];
        let expect = conv_direct_vanilla(&input, &w, &bias, &p, os, DataLayout::Nchw);
        let got = conv1x1_sparse(&input, &w, &bias, &p, os);
        assert!(expect.approx_eq(&got, 1e-5).unwrap());
    }

    #[test]
    fn sparse_fc_matches_dense_gemv() {
        let in_s = Shape::new(2, 4, 2, 2); // 16 features
        let input = Tensor::random(in_s, DataLayout::Nchw, 4);
        let os = Shape::vector(2, 5);
        let w: Vec<f32> = (0..80)
            .map(|i| {
                if i % 4 == 0 {
                    (i % 9) as f32 * 0.1
                } else {
                    0.0
                }
            })
            .collect();
        let bias = vec![0.5; 5];
        let got = fc_sparse(&input, &w, &bias, os);
        // Dense reference.
        let mut expect = Tensor::zeros(os, DataLayout::Nchw);
        for n in 0..2 {
            for o in 0..5 {
                let mut acc = bias[o];
                for i in 0..16 {
                    acc += w[o * 16 + i] * input.as_slice()[n * 16 + i];
                }
                expect.set(n, o, 0, 0, acc);
            }
        }
        assert!(expect.approx_eq(&got, 1e-5).unwrap());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_spmm_matches_dense(rows in 1usize..8, cols in 1usize..8, n in 1usize..8, seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let dense: Vec<f32> = (0..rows * cols)
                .map(|_| if rng.gen_bool(0.4) { rng.gen_range(-1.0..1.0) } else { 0.0 })
                .collect();
            let b: Vec<f32> = (0..cols * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let csr = CsrMatrix::from_dense(rows, cols, &dense);
            let mut c0 = vec![0.0; rows * n];
            let mut c1 = vec![0.0; rows * n];
            qsdnn_gemm::sgemm_naive(rows, cols, n, &dense, &b, &mut c0);
            csr.spmm(&b, n, &mut c1);
            let d = c0.iter().zip(&c1).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max);
            prop_assert!(d < 1e-4);
        }
    }
}
