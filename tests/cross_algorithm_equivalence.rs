//! Workspace integration test: every primitive implementing a layer must
//! compute the same function as the Vanilla reference, across all layer
//! kinds and layouts that appear in the zoo.

use qsdnn::nn::zoo;
use qsdnn::primitives::{execute_layer, generate_weights, registry};
use qsdnn::tensor::{DataLayout, Tensor};

/// Runs a full forward pass with Vanilla, then re-executes every layer with
/// every candidate primitive and compares outputs.
fn check_network(name: &str, tol: f32) {
    let net = zoo::by_name(name, 1).expect("known network");
    let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 0xAB);
    let mut acts: Vec<Tensor> = Vec::with_capacity(net.len());
    for node in net.layers() {
        let in_shapes = net.input_shapes(node.id);
        let weights = generate_weights(node, &in_shapes, 0xCD);
        let cands = registry::candidates(node);
        let parents: Vec<&Tensor> = if node.inputs.is_empty() {
            vec![&input]
        } else {
            node.inputs.iter().map(|p| &acts[p.0]).collect()
        };
        let reference = {
            let conv: Vec<Tensor> = parents
                .iter()
                .map(|t| t.to_layout(cands[0].layout))
                .collect();
            let refs: Vec<&Tensor> = conv.iter().collect();
            execute_layer(node, &cands[0], &refs, &weights)
        };
        for prim in &cands[1..] {
            let conv: Vec<Tensor> = parents.iter().map(|t| t.to_layout(prim.layout)).collect();
            let refs: Vec<&Tensor> = conv.iter().collect();
            let got = execute_layer(node, prim, &refs, &weights);
            let d = reference.max_abs_diff(&got).expect("same shape");
            assert!(
                d <= tol,
                "{name}/{}: {prim} differs from vanilla by {d}",
                node.desc.name
            );
        }
        acts.push(reference);
    }
}

#[test]
fn tiny_cnn_all_primitives_agree() {
    check_network("tiny_cnn", 1e-3);
}

#[test]
fn toy_branchy_all_primitives_agree() {
    check_network("toy_branchy", 1e-3);
}

#[test]
fn lenet5_all_primitives_agree() {
    check_network("lenet5", 1e-2);
}

#[test]
fn sphereface_first_stage_primitives_agree() {
    // Full SphereFace is too slow for a unit-style test; check the first
    // eight layers (conv 3x3 s2, relus, residual adds).
    let net = zoo::sphereface20(1);
    let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 7);
    let mut acts: Vec<Tensor> = Vec::new();
    for node in net.layers().iter().take(8) {
        let in_shapes = net.input_shapes(node.id);
        let weights = generate_weights(node, &in_shapes, 9);
        let cands = registry::candidates(node);
        let parents: Vec<&Tensor> = if node.inputs.is_empty() {
            vec![&input]
        } else {
            node.inputs.iter().map(|p| &acts[p.0]).collect()
        };
        let reference = {
            let conv: Vec<Tensor> = parents
                .iter()
                .map(|t| t.to_layout(cands[0].layout))
                .collect();
            let refs: Vec<&Tensor> = conv.iter().collect();
            execute_layer(node, &cands[0], &refs, &weights)
        };
        for prim in &cands[1..] {
            let conv: Vec<Tensor> = parents.iter().map(|t| t.to_layout(prim.layout)).collect();
            let refs: Vec<&Tensor> = conv.iter().collect();
            let got = execute_layer(node, prim, &refs, &weights);
            let d = reference.max_abs_diff(&got).expect("same shape");
            assert!(d <= 5e-2, "{}: {prim} differs by {d}", node.desc.name);
        }
        acts.push(reference);
    }
}

#[test]
fn strided_sparse_pointwise_matches_vanilla() {
    // ResNet's stride-2 1×1 shortcut convolutions are offered to the Sparse
    // library; its CSR kernel must gather the strided plane, not assume
    // stride 1.
    use qsdnn::nn::{ConvParams, LayerKind, NetworkBuilder};
    use qsdnn::primitives::Library;
    use qsdnn::tensor::Shape;

    let mut b = NetworkBuilder::new("strided_pointwise");
    let x = b.input(Shape::new(2, 16, 15, 14));
    b.conv("ds", x, ConvParams::square(24, 1, 2, 0).with_density(0.5))
        .expect("valid conv");
    let toy = b.build().expect("valid network");
    let resnet = zoo::resnet18(1);
    let strided = |net: &qsdnn::nn::Network| -> Vec<usize> {
        net.layers()
            .iter()
            .filter(|n| matches!(&n.desc.kind, LayerKind::Conv(p) if p.kernel == (1, 1) && p.stride == (2, 2)))
            .map(|n| n.id.0)
            .collect()
    };
    let mut checked = 0;
    for net in [&toy, &resnet] {
        for id in strided(net) {
            let node = &net.layers()[id];
            let in_shapes = net.input_shapes(node.id);
            let weights = generate_weights(node, &in_shapes, 0xCD);
            let input = Tensor::random(in_shapes[0], DataLayout::Nchw, 0xAB);
            let cands = registry::candidates(node);
            let sparse = cands
                .iter()
                .find(|p| p.library == Library::Sparse)
                .expect("pointwise convs are offered to Sparse");
            let reference = execute_layer(
                node,
                &cands[0],
                &[&input.to_layout(cands[0].layout)],
                &weights,
            );
            let got = execute_layer(node, sparse, &[&input], &weights);
            let d = reference.max_abs_diff(&got).expect("same shape");
            assert!(
                d <= 1e-3,
                "{}/{}: sparse differs from vanilla by {d}",
                net.name(),
                node.desc.name
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 4,
        "toy plus resnet18's three downsample shortcuts, got {checked}"
    );
}
